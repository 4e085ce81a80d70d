#!/usr/bin/env bash
# Builds spotverse-bench from source into .bench_build/ at the root of the
# checkout and runs it there with the given arguments, for example
#
#   bash cmd/spotverse-bench/run.sh --workload fleet-100k --seed 7 --seconds 15 --trace 0
#
# The Go build and module caches live in .bench_build/ too, so the
# benchmark reads and writes nothing outside the checkout. The build fails,
# and nothing is measured, unless the repository's own module sits two
# directories up.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$build/spotverse-bench" .) >&2
cd "$root"
exec "$build/spotverse-bench" -golden "$here/testdata/golden.json" -trace-out "$build/trace.json" "$@"
