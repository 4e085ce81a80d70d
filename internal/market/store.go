package market

import (
	"sync"
	"time"

	"spotverse/internal/catalog"
)

// SnapshotStore shares market snapshots across environments: every Env
// built for the same (seed, start) reads the same Snapshot, so a
// multi-arm figure materialises each seed's market once instead of once
// per arm. The store bounds memory by counting published segments
// across the snapshots it holds and forgetting whole least-recently-
// acquired snapshots when the total crosses the high-water mark.
type SnapshotStore struct {
	cat   *catalog.Catalog
	limit int64 // high-water mark in segments; <= 0 means unbounded

	mu    sync.Mutex
	byKey map[storeKey]*Snapshot
	all   []*Snapshot // least-recently-acquired first, so dropping never iterates a map
}

type storeKey struct {
	seed  int64
	start int64 // start.UnixNano()
}

func keyOf(seed int64, start time.Time) storeKey {
	return storeKey{seed: seed, start: start.UnixNano()}
}

// NewSnapshotStore returns a store over the catalog. limitSegments
// bounds the memory it holds (each segment is 256 float64 samples,
// 2 KiB): when the published segment count across held snapshots
// exceeds it, the store forgets whole snapshots oldest-acquired first.
// The just-acquired snapshot is never dropped, so the bound is a
// high-water mark — one active snapshot's working set may exceed it
// between acquires. limitSegments <= 0 disables dropping.
func NewSnapshotStore(cat *catalog.Catalog, limitSegments int) *SnapshotStore {
	return &SnapshotStore{
		cat:   cat,
		limit: int64(limitSegments),
		byKey: make(map[storeKey]*Snapshot),
	}
}

// Catalog exposes the store's inventory (shared by every snapshot).
func (st *SnapshotStore) Catalog() *catalog.Catalog { return st.cat }

// Len reports how many snapshots the store holds.
func (st *SnapshotStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.all)
}

// ResidentSegments reports the total published segments across the
// held snapshots.
func (st *SnapshotStore) ResidentSegments() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return int(st.residentLocked())
}

func (st *SnapshotStore) residentLocked() int64 {
	var n int64
	for _, s := range st.all {
		n += s.resident.Load()
	}
	return n
}

// Acquire returns the shared snapshot for (seed, start), building it on
// first use. Safe for concurrent use: every caller with the same key
// gets the same *Snapshot while the store holds it, and values read
// through any snapshot are byte-identical to a private market.New
// regardless of sharing, dropping, or goroutine interleaving. A dropped
// snapshot stays intact for whoever still holds it; the next Acquire of
// its key builds a fresh one with identical values.
//
//spotverse:hotpath
func (st *SnapshotStore) Acquire(seed int64, start time.Time) *Snapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	k := keyOf(seed, start)
	s := st.byKey[k]
	if s == nil {
		//spotverse:allow hotpath first-use construction; repeat (seed, start) keys return the cached snapshot
		s = NewSnapshot(st.cat, seed, start)
		st.byKey[k] = s
		st.all = append(st.all, s)
	} else {
		// Move s to the most-recently-acquired end.
		i := len(st.all) - 1
		for st.all[i] != s {
			i--
		}
		copy(st.all[i:], st.all[i+1:])
		st.all[len(st.all)-1] = s
	}
	st.dropLocked()
	return s
}

// dropLocked enforces the high-water mark by forgetting the least-
// recently-acquired snapshots. The last entry — the snapshot being
// handed out — is never dropped.
func (st *SnapshotStore) dropLocked() {
	if st.limit <= 0 {
		return
	}
	total := st.residentLocked()
	n := 0
	for ; total > st.limit && n < len(st.all)-1; n++ {
		s := st.all[n]
		total -= s.resident.Load()
		delete(st.byKey, keyOf(s.seed, s.start))
	}
	if n == 0 {
		return
	}
	kept := copy(st.all, st.all[n:])
	// Nil the vacated tail so the backing array keeps no dropped
	// snapshot alive.
	clear(st.all[kept:])
	st.all = st.all[:kept]
}
