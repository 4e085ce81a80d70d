package simclock

import (
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtEpoch(t *testing.T) {
	e := NewEngine()
	if !e.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", e.Now(), Epoch)
	}
}

func TestScheduleAfterOrdering(t *testing.T) {
	e := NewEngine()
	var got []string
	e.ScheduleAfter(2*time.Hour, "b", func() { got = append(got, "b") })
	e.ScheduleAfter(1*time.Hour, "a", func() { got = append(got, "a") })
	e.ScheduleAfter(3*time.Hour, "c", func() { got = append(got, "c") })
	if err := e.Run(time.Time{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.ScheduleAfter(time.Hour, "tie", func() { got = append(got, i) })
	}
	if err := e.Run(time.Time{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken order = %v, want ascending", got)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	e := NewEngine()
	var at time.Time
	e.ScheduleAfter(90*time.Minute, "probe", func() { at = e.Now() })
	if err := e.Run(time.Time{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := Epoch.Add(90 * time.Minute)
	if !at.Equal(want) {
		t.Fatalf("event saw now=%v, want %v", at, want)
	}
}

func TestScheduleAtPastRejected(t *testing.T) {
	e := NewEngine()
	if _, err := e.ScheduleAt(Epoch.Add(-time.Second), "past", func() {}); err == nil {
		t.Fatal("scheduling in the past should error")
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.ScheduleAfter(time.Hour, "x", func() { fired = true })
	if !ev.Cancel() {
		t.Fatal("Cancel() = false on pending event")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel() should report false")
	}
	if err := e.Run(time.Time{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestRunHorizonStopsEarly(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.ScheduleAfter(1*time.Hour, "in", func() { fired++ })
	e.ScheduleAfter(5*time.Hour, "out", func() { fired++ })
	if err := e.Run(Epoch.Add(2 * time.Hour)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if !e.Now().Equal(Epoch.Add(2 * time.Hour)) {
		t.Fatalf("clock = %v, want horizon", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestRunForAdvancesEvenWhenIdle(t *testing.T) {
	e := NewEngine()
	if err := e.RunFor(3 * time.Hour); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if got := e.Since(Epoch); got != 3*time.Hour {
		t.Fatalf("elapsed = %v, want 3h", got)
	}
}

func TestStopAborts(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.ScheduleAfter(time.Minute, "a", func() { ran++; e.Stop() })
	e.ScheduleAfter(2*time.Minute, "b", func() { ran++ })
	if err := e.Run(time.Time{}); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
}

func TestEveryTicksAndStops(t *testing.T) {
	e := NewEngine()
	var ticks []time.Time
	tk := e.Every(15*time.Minute, "tick", func(now time.Time) {
		ticks = append(ticks, now)
	})
	if err := e.Run(Epoch.Add(time.Hour)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(ticks) != 4 {
		t.Fatalf("ticks = %d, want 4", len(ticks))
	}
	tk.Stop()
	before := len(ticks)
	if err := e.Run(Epoch.Add(2 * time.Hour)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(ticks) != before {
		t.Fatalf("ticker fired after Stop: %d > %d", len(ticks), before)
	}
}

func TestRunUntilPredicate(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 0; i < 10; i++ {
		e.ScheduleAfter(time.Duration(i+1)*time.Minute, "inc", func() { n++ })
	}
	ok := e.RunUntil(func() bool { return n >= 3 })
	if !ok || n != 3 {
		t.Fatalf("RunUntil stopped at n=%d ok=%v, want n=3 ok=true", n, ok)
	}
}

func TestRunUntilUnsatisfiedDrains(t *testing.T) {
	e := NewEngine()
	n := 0
	e.ScheduleAfter(time.Minute, "inc", func() { n++ })
	if ok := e.RunUntil(func() bool { return n >= 5 }); ok {
		t.Fatal("RunUntil reported satisfied on drained queue")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := Stream(42, "market")
	b := Stream(42, "market")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed same-name streams diverged")
		}
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	a := Stream(42, "market")
	b := Stream(42, "cloud")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Intn(1000) == b.Intn(1000) {
			same++
		}
	}
	if same > 16 {
		t.Fatalf("streams look identical: %d/64 collisions", same)
	}
}

// TestRNGResetStreamMatchesFresh checks that a used stream reset to
// (seed, name) draws exactly what a fresh Stream(seed, name) draws.
func TestRNGResetStreamMatchesFresh(t *testing.T) {
	draw := func(g *RNG) []float64 {
		var out []float64
		for i := 0; i < 50; i++ {
			out = append(out, g.Float64(), float64(g.Intn(1000)), g.Exp(3), g.NormFloat64())
		}
		return out
	}
	want := draw(Stream(7, "cloud"))
	g := Stream(42, "market")
	draw(g)
	g.ResetStream(7, "cloud")
	if got := draw(g); !slices.Equal(got, want) {
		t.Fatalf("reset stream draws %v..., fresh %v...", got[:4], want[:4])
	}
}

func TestRNGUniformBounds(t *testing.T) {
	g := NewRNG(7)
	f := func(a, b uint16) bool {
		lo, hi := float64(a), float64(b)
		if hi < lo {
			lo, hi = hi, lo
		}
		v := g.Uniform(lo, hi)
		return v >= lo && (v < hi || hi == lo)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGExpNonNegative(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if g.Exp(2.5) < 0 {
			t.Fatal("Exp returned negative sample")
		}
	}
}

func TestRNGExpZeroMeanInfinite(t *testing.T) {
	g := NewRNG(7)
	v := g.Exp(0)
	if v < 1e300 {
		t.Fatalf("Exp(0) = %v, want +Inf", v)
	}
}

func TestRNGLogNormalPositive(t *testing.T) {
	g := NewRNG(9)
	for i := 0; i < 1000; i++ {
		if v := g.LogNormalAround(3, 0.5); v <= 0 {
			t.Fatalf("LogNormalAround produced %v", v)
		}
	}
}

func TestPick(t *testing.T) {
	g := NewRNG(1)
	xs := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		seen[Pick(g, xs)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Pick never chose all elements: %v", seen)
	}
}

func TestNestedSchedulingDuringRun(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recur func()
	recur = func() {
		depth++
		if depth < 5 {
			e.ScheduleAfter(time.Minute, "recur", recur)
		}
	}
	e.ScheduleAfter(time.Minute, "recur", recur)
	if err := e.Run(time.Time{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if depth != 5 {
		t.Fatalf("depth = %d, want 5", depth)
	}
	if e.Fired() != 5 {
		t.Fatalf("Fired = %d, want 5", e.Fired())
	}
}
