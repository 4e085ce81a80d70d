#!/bin/sh
# fleet_smoke.sh — CI smoke test for the fleet-scale simulation path:
#
#   1. build cmd/spotverse-experiments with the race detector;
#   2. run the `-exp fleet` sweep at 10,000 workloads across minimum
#      partition counts 1/32/128 and the default, and worker counts
#      1/4/8 — the rendered tables must be byte-identical at every
#      (shards, parallel) combination;
#   3. enforce a wall-clock budget (the race-instrumented 10k sweep
#      must finish inside FLEET_WALL_BUDGET seconds, default 300) via
#      timeout(1) when available;
#   4. enforce an RSS ceiling (default 2 GiB) — the streaming result
#      pipeline's memory bound is the point of the fleet path, so a
#      regression to retained per-workload state shows up here before
#      it hurts anyone;
#   5. build without the race detector and run the 100k sweep at
#      -parallel 2 under a 200 MB RSS ceiling (FLEET_100K_RSS_BUDGET_KB);
#      its table must equal the -parallel 1 run's byte for byte.
#
# The peak RSS is the "peak RSS <n> kB" the sweep itself reports on
# stderr (getrusage ru_maxrss, Linux only); where it reports none, the
# ceilings are not checked.
#
# The 10k budgets are deliberately loose: they catch order-of-magnitude
# regressions (an accidental O(n^2) sweep, a retained-per-workload
# leak), not scheduler noise. The 100k ceiling is the fleet engine's
# stated two-worker memory target; two workers measure about 45 MB on a
# 2-vCPU Linux host.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

wall_budget=${FLEET_WALL_BUDGET:-300}
rss_budget_kb=${FLEET_RSS_BUDGET_KB:-2097152}
rss_100k_budget_kb=${FLEET_100K_RSS_BUDGET_KB:-195312} # 200 MB

runner=""
if command -v timeout >/dev/null 2>&1; then
    runner="timeout ${wall_budget}s"
fi

# measured BUDGET_KB OUT CMD... runs CMD with stdout in OUT and fails
# unless its peak RSS stays within BUDGET_KB.
measured() {
    budget_kb=$1
    out=$2
    shift 2
    st=0
    $runner "$@" > "$out" 2> "$tmp/stderr.txt" || st=$?
    cat "$tmp/stderr.txt" >&2
    [ "$st" -eq 0 ] || exit "$st"
    rss_kb=$(sed -n 's/.*peak RSS \([0-9]*\) kB.*/\1/p' "$tmp/stderr.txt")
    if [ -z "$rss_kb" ]; then
        echo "fleet smoke: no peak RSS reported; RSS ceiling not checked"
        return
    fi
    echo "fleet smoke: max RSS ${rss_kb} kB (ceiling ${budget_kb} kB)"
    [ "$rss_kb" -le "$budget_kb" ] || {
        echo "fleet smoke: RSS ${rss_kb} kB exceeds ceiling ${budget_kb} kB" >&2
        exit 1
    }
}

echo "fleet smoke: race-instrumented build"
go build -race -o "$tmp/svexp" ./cmd/spotverse-experiments

echo "fleet smoke: 10k sweep under race, shards 1 / parallel 1"
measured "$rss_budget_kb" "$tmp/fleet_ref.txt" \
    "$tmp/svexp" -exp fleet -fleet 10000 -fleet-shards 1 -parallel 1

# The sharded engine's core invariant: the rendered sweep is
# byte-identical at every shard x worker combination, including the
# default (-fleet-shards unset, shards = -parallel). A 10k fleet is
# always cut into at least ceil(10000/block) blocks, so the counts
# here sit far enough apart to give distinct partitions.
for cell in "32 4" "128 8" "- 8"; do
    shards=${cell% *}
    parallel=${cell#* }
    if [ "$shards" = "-" ]; then
        echo "fleet smoke: shards default / parallel $parallel"
        $runner "$tmp/svexp" -exp fleet -fleet 10000 -parallel "$parallel" > "$tmp/fleet_cell.txt"
    else
        echo "fleet smoke: shards $shards / parallel $parallel"
        $runner "$tmp/svexp" -exp fleet -fleet 10000 -fleet-shards "$shards" -parallel "$parallel" > "$tmp/fleet_cell.txt"
    fi
    cmp "$tmp/fleet_ref.txt" "$tmp/fleet_cell.txt"
done

grep -q 'single-region  10000' "$tmp/fleet_ref.txt"
grep -q 'skypilot       10000' "$tmp/fleet_ref.txt"
cat "$tmp/fleet_ref.txt"

echo "fleet smoke: race-free build"
go build -o "$tmp/svexp-opt" ./cmd/spotverse-experiments

echo "fleet smoke: 100k sweep, parallel 1"
$runner "$tmp/svexp-opt" -exp fleet -fleet 100000 -parallel 1 > "$tmp/fleet_100k_p1.txt"
echo "fleet smoke: 100k sweep, parallel 2"
measured "$rss_100k_budget_kb" "$tmp/fleet_100k_p2.txt" \
    "$tmp/svexp-opt" -exp fleet -fleet 100000 -parallel 2
cmp "$tmp/fleet_100k_p1.txt" "$tmp/fleet_100k_p2.txt"
grep -q 'skypilot       100000' "$tmp/fleet_100k_p2.txt"
echo "fleet smoke: OK"
