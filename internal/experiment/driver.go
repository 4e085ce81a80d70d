package experiment

import (
	"context"
	"fmt"
	"runtime/pprof"
	"slices"
	"sort"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/cloud"
	"spotverse/internal/simclock"
	"spotverse/internal/strategy"
	"spotverse/internal/workload"
)

// progress is the per-workload state a driver advances, addressed by
// dense workload index. *workload.FleetState implements it directly;
// states adapts Run's []*workload.State.
type progress interface {
	Len() int
	AppendID(dst []byte, i int) []byte
	AttemptDuration(i int) time.Duration
	BeginAttempt(i int) error
	RecordInterruption(i int)
	MarkComplete(i int, at time.Time) error
}

// states adapts a []*workload.State to the progress table.
type states []*workload.State

func (s states) Len() int                               { return len(s) }
func (s states) AppendID(dst []byte, i int) []byte      { return append(dst, s[i].Spec.ID...) }
func (s states) AttemptDuration(i int) time.Duration    { return s[i].AttemptDuration() }
func (s states) BeginAttempt(i int) error               { return s[i].BeginAttempt() }
func (s states) RecordInterruption(i int)               { s[i].Interruptions++ }
func (s states) MarkComplete(i int, at time.Time) error { return s[i].MarkComplete(at) }

// RelaunchResolverTarget is implemented by strategies that can rebuild
// relaunch closures after a crash-restart (core.SpotVerse with the
// journal on). The harness wires its relaunch factory in when present.
type RelaunchResolverTarget interface {
	SetRelaunchResolver(fn func(id string) strategy.RelaunchFunc)
}

// CompletionObserver is implemented by strategies that learn from
// successful runs (e.g. the predictive strategy's survival feedback).
type CompletionObserver interface {
	OnCompleted(id string)
}

// tally is what a driver counts as provider events arrive; Run and each
// fleet shard reduce it into their own result.
type tally struct {
	completed           int
	interruptions       int
	onDemandLaunches    int
	duplicateRelaunches int
	// lostShards and undetectedCorruption count manifest failures at
	// checkpoint resume (see resume).
	lostShards           int
	undetectedCorruption int

	// launchesByRegion and interruptionsByRegion count by catalog
	// region index; byRegion turns them into the results' maps.
	launchesByRegion      []int
	interruptionsByRegion []int
	// launchNs/stopNs stamp tracked instance starts and stops; the fleet
	// merge recovers the concurrency high-water mark from them.
	launchNs []int64
	stopNs   []int64
}

// byRegion returns the nonzero counts of a region-indexed tally as a
// map keyed by region name.
func byRegion(cat *catalog.Catalog, counts []int) map[catalog.Region]int {
	out := make(map[catalog.Region]int)
	for ri, c := range counts {
		if c != 0 {
			out[cat.Regions()[ri]] = c
		}
	}
	return out
}

// driver maps instances to workloads and reacts to provider events.
// Run and every fleet block drive their engine through one; what
// differs between them — the draw source, the sweep, the horizon, and
// how instance costs and interruption instants are kept — stays in
// their own setup and loop.
//
// Per-workload state is a dense slice indexed like the progress table,
// and the completion and relaunch closures are built once per slot:
// they capture only the driver and the index and read the driver's
// state when they fire, so a driver reset for another block (reset)
// keeps them. Each workload owns one completion event, re-armed at every
// launch. It is pending only while its instance is the tracked one
// (interruption cancels it; duplicate launches are refused), so a launch
// never finds it pending and complete can re-read activeInst at fire
// time.
type driver struct {
	env   *Env
	typ   catalog.InstanceType
	strat strategy.Strategy
	obs   CompletionObserver
	wl    progress
	// index resolves an instance tag or strategy-facing ID to its dense
	// index.
	index func(tag string) (int, bool)
	// ids holds the strategy-facing workload IDs, sliced out of one
	// string; the hot path never re-formats one. idBuf, idEnds and
	// sorted are reset's and placeInitial's scratch.
	ids    []string
	idBuf  []byte
	idEnds []int
	sorted []string

	// done marks the workloads this driver completed; activeInst holds
	// each workload's tracked running instance (nil when none).
	done         []bool
	activeInst   []*cloud.Instance
	completionEv []simclock.Event
	compFns      []func()
	relFns       []strategy.RelaunchFunc

	// terminated receives every terminated instance of a known workload,
	// before the driver reacts to it, and whether it is an interruption
	// the driver counts. The provider releases instance records after
	// termination, so this is where each caller logs final costs (Run by
	// instance ID, a fleet shard by global index) and interruption
	// instants (Run as stamps, a fleet shard as a histogram).
	terminated func(inst *cloud.Instance, i int, interrupted bool)
	timeline   *Timeline
	// ckpt is nil unless the workloads include checkpoint ones.
	ckpt *checkpoints

	tally
}

// newDriver builds the driver for one engine's workloads, subscribes it
// to the provider's launch and termination events, and hands a
// relaunch-resolving strategy its relaunch closures.
func newDriver(env *Env, strat strategy.Strategy, typ catalog.InstanceType, wl progress,
	index func(string) (int, bool), terminated func(*cloud.Instance, int, bool)) *driver {
	d := new(driver)
	d.reset(env, strat, typ, wl, index, terminated)
	return d
}

// reset readies d for another engine's workloads as newDriver builds it.
// The per-slot tables are cleared and resized in place, the slot
// closures and the tally's stamp buffers are kept, and everything else
// starts over, so a reset driver behaves as a new one. The engine and
// provider must have been reset first: the completion events are
// cleared here, and the subscriptions go to a provider that has none.
func (d *driver) reset(env *Env, strat strategy.Strategy, typ catalog.InstanceType, wl progress,
	index func(string) (int, bool), terminated func(*cloud.Instance, int, bool)) {
	n := wl.Len()
	regions := len(env.Catalog().Regions())
	*d = driver{
		env:          env,
		typ:          typ,
		strat:        strat,
		wl:           wl,
		index:        index,
		terminated:   terminated,
		ids:          resized(d.ids, n),
		idBuf:        d.idBuf[:0],
		idEnds:       resized(d.idEnds, n),
		sorted:       d.sorted,
		done:         resized(d.done, n),
		activeInst:   resized(d.activeInst, n),
		completionEv: resized(d.completionEv, n),
		compFns:      d.compFns,
		relFns:       d.relFns,
		tally: tally{
			launchesByRegion:      resized(d.launchesByRegion, regions),
			interruptionsByRegion: resized(d.interruptionsByRegion, regions),
			launchNs:              d.launchNs[:0],
			stopNs:                d.stopNs[:0],
		},
	}
	d.obs, _ = strat.(CompletionObserver)
	// Format every ID into one buffer and convert it once.
	for i := 0; i < n; i++ {
		d.idBuf = wl.AppendID(d.idBuf, i)
		d.idEnds[i] = len(d.idBuf)
	}
	all := string(d.idBuf)
	for i, lo := 0, 0; i < n; i++ {
		d.ids[i], lo = all[lo:d.idEnds[i]], d.idEnds[i]
	}
	for i := len(d.compFns); i < n; i++ {
		d.compFns = append(d.compFns, func() { d.complete(i) })
		d.relFns = append(d.relFns, func(p strategy.Placement) {
			if !d.done[i] {
				d.timeline.add(Event{At: d.env.Engine.Now(), Kind: EventRelaunch, Workload: d.ids[i], Region: p.Region, Lifecycle: p.Lifecycle})
				_ = d.provision(i, p)
			}
		})
	}
	env.Provider.OnLaunch(d.onLaunch)
	env.Provider.OnTerminate(d.onTerminate)
	if target, ok := strat.(RelaunchResolverTarget); ok {
		target.SetRelaunchResolver(d.relaunchFor)
	}
}

// resized returns s as n zero values, reusing its array when it holds
// n.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// detached returns a copy of t whose slices are its own and exactly as
// long as t's, so t's buffers can be reused.
func (t *tally) detached() tally {
	out := *t
	out.launchesByRegion = slices.Clone(t.launchesByRegion)
	out.interruptionsByRegion = slices.Clone(t.interruptionsByRegion)
	out.launchNs = slices.Clone(t.launchNs)
	out.stopNs = slices.Clone(t.stopNs)
	return out
}

// labeled runs fn under one pprof label, so CPU profiles attribute its
// samples (per strategy arm, per trial seed).
func labeled[T any](key, value string, fn func() (T, error)) (out T, err error) {
	pprof.Do(context.Background(), pprof.Labels(key, value), func(context.Context) { out, err = fn() })
	return out, err
}

// placeInitial provisions every workload where the strategy first puts
// it. The strategy sees the IDs sorted.
func (d *driver) placeInitial() error {
	d.sorted = append(d.sorted[:0], d.ids...)
	sorted := d.sorted
	sort.Strings(sorted)
	placements, err := d.strat.PlaceInitial(sorted)
	if err != nil {
		return fmt.Errorf("experiment: initial placement: %w", err)
	}
	for _, id := range sorted {
		p, ok := placements[id]
		if !ok {
			return fmt.Errorf("experiment: strategy left %q unplaced", id)
		}
		i, _ := d.index(id)
		if err := d.provision(i, p); err != nil {
			return err
		}
	}
	return nil
}

// terminateAll stops the instances still running once the loop ends
// (completed workloads already terminated theirs).
func (d *driver) terminateAll() {
	for _, inst := range d.env.Provider.RunningInstances() {
		_ = d.env.Provider.Terminate(inst.ID)
	}
}

// relaunchFor returns the relaunch closure handed to strategies for one
// workload — also the factory a journaled Controller uses to reattach
// closures to replayed migrations after a crash-restart.
func (d *driver) relaunchFor(id string) strategy.RelaunchFunc {
	i, ok := d.index(id)
	if !ok {
		return nil
	}
	return d.relFns[i]
}

// provision issues the spot request or on-demand launch for a workload.
func (d *driver) provision(i int, p strategy.Placement) error {
	id := d.ids[i]
	switch p.Lifecycle {
	case cloud.LifecycleOnDemand:
		if _, err := d.env.Provider.RunOnDemand(d.typ, p.Region, id); err != nil {
			return fmt.Errorf("experiment: provision %s on-demand: %w", id, err)
		}
	default:
		if _, err := d.env.Provider.RequestSpot(d.typ, p.Region, id); err != nil {
			return fmt.Errorf("experiment: provision %s spot: %w", id, err)
		}
	}
	return nil
}

func (d *driver) onLaunch(inst *cloud.Instance) {
	i, ok := d.index(inst.Tag)
	if !ok {
		return
	}
	if d.done[i] {
		// A stale open request got fulfilled after completion.
		_ = d.env.Provider.Terminate(inst.ID)
		return
	}
	if d.activeInst[i] != nil {
		// A second instance for a workload that already has a running
		// one: an exactly-once violation on the recovery path. Count it
		// and kill the duplicate.
		d.duplicateRelaunches++
		_ = d.env.Provider.Terminate(inst.ID)
		return
	}
	if err := d.wl.BeginAttempt(i); err != nil {
		_ = d.env.Provider.Terminate(inst.ID)
		return
	}
	now := d.env.Engine.Now()
	d.activeInst[i] = inst
	d.launchNs = append(d.launchNs, now.UnixNano())
	d.launchesByRegion[inst.Offer().RegionIndex()]++
	if inst.Lifecycle == cloud.LifecycleOnDemand {
		d.onDemandLaunches++
	}
	d.timeline.add(Event{At: now, Kind: EventLaunch, Workload: inst.Tag, Instance: inst.ID, Region: inst.Region(), Lifecycle: inst.Lifecycle})
	if d.ckpt != nil {
		d.resume(i, inst.Region())
	}
	d.env.Engine.ArmAfter(&d.completionEv[i], d.wl.AttemptDuration(i), "workload-complete", d.compFns[i])
}

func (d *driver) complete(i int) {
	inst := d.activeInst[i]
	if inst == nil || inst.State != cloud.StateRunning {
		return
	}
	now := d.env.Engine.Now()
	if err := d.wl.MarkComplete(i, now); err != nil {
		return
	}
	d.done[i] = true
	d.completed++
	d.timeline.add(Event{At: now, Kind: EventComplete, Workload: inst.Tag, Instance: inst.ID, Region: inst.Region(), Lifecycle: inst.Lifecycle})
	if d.obs != nil {
		d.obs.OnCompleted(d.ids[i])
	}
	_ = d.env.Provider.Terminate(inst.ID)
}

func (d *driver) onTerminate(inst *cloud.Instance, interrupted bool) {
	i, ok := d.index(inst.Tag)
	if !ok {
		return
	}
	now := d.env.Engine.Now()
	tracked := d.activeInst[i] == inst
	counted := interrupted && tracked && !d.done[i]
	d.terminated(inst, i, counted)
	if tracked {
		d.activeInst[i] = nil
		d.stopNs = append(d.stopNs, now.UnixNano())
	}
	if !counted {
		return
	}
	d.interruptions++
	d.interruptionsByRegion[inst.Offer().RegionIndex()]++
	d.timeline.add(Event{At: now, Kind: EventInterrupt, Workload: inst.Tag, Instance: inst.ID, Region: inst.Region(), Lifecycle: inst.Lifecycle})
	if d.ckpt != nil {
		d.bankProgress(i, now.Sub(inst.LaunchedAt))
	} else {
		d.wl.RecordInterruption(i)
	}
	d.completionEv[i].Cancel()
	// A strategy that cannot place leaves the workload stranded; the run
	// hits the horizon and reports it.
	_ = d.strat.OnInterrupted(inst.Tag, inst.Region(), d.relFns[i])
}
