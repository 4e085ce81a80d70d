package workload

import (
	"errors"
	"fmt"
	"time"

	"spotverse/internal/simclock"
)

// ErrCheckpointFleet rejects checkpoint workloads in GenerateFleet:
// fleets hold standard workloads only. Checkpoint workloads run on the
// per-workload path.
var ErrCheckpointFleet = errors.New("workload: fleets hold standard workloads only")

// FleetState is the struct-of-arrays counterpart of []*State for
// fleet-scale runs of standard workloads. A 100k-workload fleet as
// individual *State values costs one allocation, one ID string, and a
// copy of the mostly-uniform Spec per workload, and every access chases
// a pointer the GC must scan. FleetState keeps the shared ID prefix
// once and the per-workload progress counters in parallel slices
// indexed by dense workload index, so the whole fleet is a handful of
// flat allocations with no interior pointers.
//
// Per-index methods mirror State's semantics for KindStandard exactly —
// the fleet engine must be bit-identical to the per-workload path.
type FleetState struct {
	// IDPrefix is shared by every workload in the fleet.
	IDPrefix string

	// Base is the global index of column slot 0. It is zero for a fleet
	// built by GenerateFleet and non-zero for Shard views, whose IDs
	// must keep their fleet-global index.
	Base int

	// Per-workload columns, indexed by dense workload index.
	Durations     []time.Duration
	Attempts      []int32
	Interruptions []int32
	Completed     []bool
	// CompletedAtNanos is UnixNano of completion; meaningful only when
	// Completed[i].
	CompletedAtNanos []int64
}

// Len reports the fleet size.
func (f *FleetState) Len() int { return len(f.Durations) }

// ID materializes workload i's identifier on demand; the fleet retains
// no ID strings. The format is "<prefix>-<index>" with the index
// zero-padded to at least three digits (what %03d renders).
func (f *FleetState) ID(i int) string {
	return string(f.AppendID(nil, i))
}

// AppendID appends workload i's identifier to dst and returns the
// extended slice. The fleet driver formats a block's IDs into one reused
// buffer; with capacity present this does not allocate.
//
//spotverse:hotpath
func (f *FleetState) AppendID(dst []byte, i int) []byte {
	dst = append(dst, f.IDPrefix...)
	dst = append(dst, '-')
	return appendPadded(dst, f.Base+i, 3)
}

// appendPadded appends n in decimal, zero-padded to at least width
// digits — the byte sequence fmt's %0*d renders for non-negative n.
//
//spotverse:hotpath
func appendPadded(dst []byte, n, width int) []byte {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	for len(buf)-i < width {
		i--
		buf[i] = '0'
	}
	return append(dst, buf[i:]...)
}

// ShardBounds returns the half-open bounds [lo, hi) of shard k when n
// workloads are split into count contiguous shards: base size n/count,
// with the first n%count shards taking one extra. Shards beyond the
// workload count come back empty (lo == hi).
func ShardBounds(n, count, k int) (lo, hi int) {
	base := n / count
	extra := n % count
	lo = k*base + min(k, extra)
	hi = lo + base
	if k < extra {
		hi++
	}
	return lo, hi
}

// Shard returns a view of workloads [lo, hi). The view's columns alias
// the parent's backing arrays — disjoint shards touch disjoint memory,
// so concurrent shard drivers are race-free and mutations through a
// view land directly in the parent — and Base keeps IDs on their
// fleet-global index.
func (f *FleetState) Shard(lo, hi int) *FleetState {
	return &FleetState{
		IDPrefix:         f.IDPrefix,
		Base:             f.Base + lo,
		Durations:        f.Durations[lo:hi:hi],
		Attempts:         f.Attempts[lo:hi:hi],
		Interruptions:    f.Interruptions[lo:hi:hi],
		Completed:        f.Completed[lo:hi:hi],
		CompletedAtNanos: f.CompletedAtNanos[lo:hi:hi],
	}
}

// AttemptDuration is the time workload i's next attempt needs: its full
// duration, since a standard workload restarts from zero.
func (f *FleetState) AttemptDuration(i int) time.Duration {
	if f.Completed[i] {
		return 0
	}
	return f.Durations[i]
}

// BeginAttempt records an instance launch for workload i.
func (f *FleetState) BeginAttempt(i int) error {
	if f.Completed[i] {
		return fmt.Errorf("workload %q: %w", f.ID(i), ErrCompleted)
	}
	f.Attempts[i]++
	return nil
}

// RecordInterruption accounts an interrupted attempt of workload i. A
// standard workload banks no progress.
func (f *FleetState) RecordInterruption(i int) {
	f.Interruptions[i]++
}

// MarkComplete finalises workload i.
func (f *FleetState) MarkComplete(i int, at time.Time) error {
	if f.Completed[i] {
		return fmt.Errorf("workload %q: %w", f.ID(i), ErrCompleted)
	}
	f.Completed[i] = true
	f.CompletedAtNanos[i] = at.UnixNano()
	return nil
}

// GenerateFleet builds a reproducible fleet of standard workloads. It
// consumes the RNG stream exactly as Generate does — one Float64 per
// workload whenever the duration range is non-degenerate — so a fleet
// and a []*State set generated from the same seed describe identical
// workloads. Checkpoint kinds are rejected with ErrCheckpointFleet.
func GenerateFleet(rng *simclock.RNG, opts GenOptions) (*FleetState, error) {
	if opts.Count <= 0 {
		return nil, errors.New("workload: count must be positive")
	}
	if opts.Kind == KindCheckpoint {
		return nil, ErrCheckpointFleet
	}
	opts = opts.normalized()
	f := &FleetState{
		IDPrefix:         opts.IDPrefix,
		Durations:        make([]time.Duration, opts.Count),
		Attempts:         make([]int32, opts.Count),
		Interruptions:    make([]int32, opts.Count),
		Completed:        make([]bool, opts.Count),
		CompletedAtNanos: make([]int64, opts.Count),
	}
	for i := 0; i < opts.Count; i++ {
		dur := opts.MinDuration
		if opts.MaxDuration > opts.MinDuration {
			span := opts.MaxDuration - opts.MinDuration
			dur += time.Duration(rng.Float64() * float64(span))
		}
		if dur <= 0 {
			// Spec.Validate's error, without materializing an ID string
			// per workload on the happy path.
			return nil, fmt.Errorf("workload %q: %w", f.ID(i), ErrBadDuration)
		}
		f.Durations[i] = dur
	}
	return f, nil
}
