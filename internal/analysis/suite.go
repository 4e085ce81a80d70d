package analysis

import (
	"fmt"
	"sort"
)

// Suite returns the full lint suite in display order: the determinism
// generation (detrand, mapiter, seedflow, errdrop) followed by the
// concurrency/hot-path generation (lockorder, goleak, atomicmix,
// hotpath). By-value copies of locks and typed atomics are left to
// go vet's copylocks pass.
func Suite() []*Analyzer {
	return []*Analyzer{DetRand, MapIter, SeedFlow, ErrDrop, LockOrder, GoLeak, AtomicMix, HotPath}
}

// Select returns the named analyzers from the suite, preserving suite
// order. An unknown name is an error so typos in -only fail loudly.
func Select(names []string) ([]*Analyzer, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []*Analyzer
	for _, a := range Suite() {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for n := range want {
			unknown = append(unknown, n)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("analysis: unknown analyzers %v", unknown)
	}
	return out, nil
}
