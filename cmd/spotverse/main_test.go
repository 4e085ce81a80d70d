package main

import "testing"

func TestRunSpotVerse(t *testing.T) {
	if err := run("spotverse", "m5.xlarge", 5, "standard", 5, 4, "ca-central-1", true, 42); err != nil {
		t.Fatal(err)
	}
}

func TestRunBaselines(t *testing.T) {
	for _, s := range []string{"single-region", "on-demand", "skypilot"} {
		if err := run(s, "m5.xlarge", 3, "standard", 5, 4, "ca-central-1", false, 42); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
}

func TestRunCheckpointKind(t *testing.T) {
	if err := run("on-demand", "m5.xlarge", 3, "checkpoint", 5, 4, "ca-central-1", false, 42); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run("bogus", "m5.xlarge", 3, "standard", 5, 4, "ca-central-1", false, 42); err == nil {
		t.Fatal("unknown strategy should error")
	}
	if err := run("spotverse", "z9.nano", 3, "standard", 5, 4, "ca-central-1", false, 42); err == nil {
		t.Fatal("unknown type should error")
	}
	if err := run("spotverse", "m5.xlarge", 3, "weird", 5, 4, "ca-central-1", false, 42); err == nil {
		t.Fatal("unknown kind should error")
	}
	for _, bad := range []struct{ threshold, regions int }{{0, 4}, {-3, 4}, {5, 0}, {5, -2}} {
		if err := run("spotverse", "m5.xlarge", 3, "standard", bad.threshold, bad.regions, "ca-central-1", false, 42); err == nil {
			t.Fatalf("-threshold %d -regions %d should error", bad.threshold, bad.regions)
		}
	}
}
