package workload

import (
	"errors"
	"testing"
	"time"

	"spotverse/internal/simclock"
)

// TestGenerateFleetMatchesGenerate pins the RNG contract: a fleet and a
// per-workload set built from the same seed must describe identical
// workloads.
func TestGenerateFleetMatchesGenerate(t *testing.T) {
	opts := GenOptions{Kind: KindStandard, Count: 25}
	states, err := Generate(simclock.Stream(7, "wl"), opts)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := GenerateFleet(simclock.Stream(7, "wl"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Len() != len(states) {
		t.Fatalf("fleet len %d, want %d", fleet.Len(), len(states))
	}
	for i, st := range states {
		if got, want := fleet.ID(i), st.Spec.ID; got != want {
			t.Fatalf("ID(%d) = %q, want %q", i, got, want)
		}
		if got, want := fleet.Durations[i], st.Spec.Duration; got != want {
			t.Fatalf("Durations[%d] = %v, want %v", i, got, want)
		}
	}
}

// TestFleetStateMirrorsState drives a FleetState and the equivalent
// *State values through the same scripted attempt/interrupt/complete
// sequence and asserts every observable agrees at every step.
func TestFleetStateMirrorsState(t *testing.T) {
	opts := GenOptions{Kind: KindStandard, Count: 8}
	states, err := Generate(simclock.Stream(11, "wl"), opts)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := GenerateFleet(simclock.Stream(11, "wl"), opts)
	if err != nil {
		t.Fatal(err)
	}

	check := func(step string) {
		t.Helper()
		for i, st := range states {
			if got, want := fleet.AttemptDuration(i), st.AttemptDuration(); got != want {
				t.Fatalf("%s: AttemptDuration[%d] = %v, want %v", step, i, got, want)
			}
			if got, want := int(fleet.Attempts[i]), st.Attempts; got != want {
				t.Fatalf("%s: Attempts[%d] = %d, want %d", step, i, got, want)
			}
			if got, want := int(fleet.Interruptions[i]), st.Interruptions; got != want {
				t.Fatalf("%s: Interruptions[%d] = %d, want %d", step, i, got, want)
			}
			if got, want := fleet.Completed[i], st.Completed; got != want {
				t.Fatalf("%s: Completed[%d] = %v, want %v", step, i, got, want)
			}
		}
	}

	check("fresh")
	for i, st := range states {
		if err := st.BeginAttempt(); err != nil {
			t.Fatal(err)
		}
		if err := fleet.BeginAttempt(i); err != nil {
			t.Fatal(err)
		}
	}
	check("after first attempt")

	// Interrupt each workload partway: a standard workload banks
	// nothing, whatever it computed.
	for i, st := range states {
		if banked := st.CreditProgress(time.Duration(i+1) * time.Hour); banked != 0 {
			t.Fatalf("standard workload %d banked %d shards", i, banked)
		}
		fleet.RecordInterruption(i)
	}
	check("after interruption")

	for i, st := range states {
		if err := st.BeginAttempt(); err != nil {
			t.Fatal(err)
		}
		if err := fleet.BeginAttempt(i); err != nil {
			t.Fatal(err)
		}
	}
	check("after restart")

	// Complete everything and verify completion invariants.
	at := simclock.Epoch.Add(13 * time.Hour)
	for i, st := range states {
		if err := st.MarkComplete(at); err != nil {
			t.Fatal(err)
		}
		if err := fleet.MarkComplete(i, at); err != nil {
			t.Fatal(err)
		}
	}
	check("after completion")
	for i := range states {
		if got := fleet.CompletedAtNanos[i]; got != at.UnixNano() {
			t.Fatalf("CompletedAtNanos[%d] = %d, want %d", i, got, at.UnixNano())
		}
		if err := fleet.MarkComplete(i, at); err == nil {
			t.Fatal("double MarkComplete succeeded")
		}
		if err := fleet.BeginAttempt(i); err == nil {
			t.Fatal("BeginAttempt after completion succeeded")
		}
	}
}

// TestGenerateFleetRejectsCheckpoint pins the scope boundary: fleets
// hold standard workloads only.
func TestGenerateFleetRejectsCheckpoint(t *testing.T) {
	_, err := GenerateFleet(simclock.Stream(1, "wl"), GenOptions{Kind: KindCheckpoint, Count: 4, Shards: 4})
	if !errors.Is(err, ErrCheckpointFleet) {
		t.Fatalf("checkpoint fleet: err = %v, want ErrCheckpointFleet", err)
	}
}

func TestGenerateFleetRejectsBadCount(t *testing.T) {
	if _, err := GenerateFleet(simclock.Stream(1, "wl"), GenOptions{Kind: KindStandard, Count: 0}); err == nil {
		t.Fatal("count 0 accepted")
	}
}

func TestFleetIDsMatchGenerate(t *testing.T) {
	states, err := Generate(simclock.Stream(3, "wl"), GenOptions{Kind: KindStandard, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := GenerateFleet(simclock.Stream(3, "wl"), GenOptions{Kind: KindStandard, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range states {
		if got := fleet.ID(i); got != st.Spec.ID {
			t.Fatalf("ID(%d) = %q, want %q", i, got, st.Spec.ID)
		}
	}
}
