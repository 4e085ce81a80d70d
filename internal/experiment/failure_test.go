package experiment

import (
	"testing"
	"time"

	"spotverse/internal/baselines"
	"spotverse/internal/catalog"
	"spotverse/internal/cloud"
	"spotverse/internal/galaxy"
	"spotverse/internal/workload"
)

// Failure-injection tests: regional outages and Galaxy jobs cancelled by
// real provider reclaims.

func TestRegionalOutageStallsThenRecovers(t *testing.T) {
	env := NewEnv(60)
	// ca-central-1 loses spot capacity for the first 6 hours.
	if err := env.Market.InjectOutage("ca-central-1", env.Engine.Now(), env.Engine.Now().Add(6*time.Hour)); err != nil {
		t.Fatal(err)
	}
	strat, err := baselines.NewSingleRegion(env.Catalog(), catalog.M5XLarge, "ca-central-1")
	if err != nil {
		t.Fatal(err)
	}
	ws := genWorkloads(t, 60, workload.KindStandard, 5)
	res, err := Run(env, RunConfig{Workloads: ws, Strategy: strat, InstanceType: catalog.M5XLarge, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 5 {
		t.Fatalf("completed = %d", res.Completed)
	}
	// No instance can have launched inside the outage window: the first
	// launch must be at or after the 6-hour mark.
	for _, e := range res.Timeline.Events() {
		if e.Kind == EventLaunch && e.At.Before(env.Market.Start().Add(6*time.Hour)) {
			t.Fatalf("launch at %v inside outage window", e.At)
		}
	}
	// The sweep retried open requests throughout: completion still lands
	// within outage + workload duration + retry slack.
	if res.MakespanHours < 16 {
		t.Fatalf("makespan %vh < outage+duration; outage had no effect", res.MakespanHours)
	}
}

func TestOutageValidation(t *testing.T) {
	env := NewEnv(61)
	now := env.Engine.Now()
	if err := env.Market.InjectOutage("ca-central-1", now.Add(time.Hour), now); err == nil {
		t.Fatal("inverted window accepted")
	}
	if err := env.Market.InjectOutage("narnia-1", now, now.Add(time.Hour)); err == nil {
		t.Fatal("unknown region accepted")
	}
	if env.Market.InOutage("ca-central-1", now) {
		t.Fatal("outage without injection")
	}
}

// TestGalaxyJobCancelledByRealReclaim ties the timed Galaxy job runner to
// actual provider interruptions: a spot reclaim cancels the in-flight
// workflow mid-step.
func TestGalaxyJobCancelledByRealReclaim(t *testing.T) {
	env := NewEnv(64)
	g := galaxy.New(galaxy.Config{AdminUsers: []string{"a@x"}, APIKeys: map[string]string{"a@x": "k"}})
	if err := galaxy.InstallStandardTools(g, "a@x"); err != nil {
		t.Fatal(err)
	}
	jr := galaxy.NewJobRunner(env.Engine, g, galaxy.JobOptions{BasePerStep: 40 * time.Minute})

	// A long 23-step job (~15h) on a spot instance in the riskiest
	// region: over many attempts, one must get reclaimed mid-run.
	var handles []*galaxy.JobHandle
	env.Provider.OnLaunch(func(inst *cloud.Instance) {
		inputs := map[string]galaxy.Dataset{
			"reference":     {Name: "r.fasta", Format: "fasta", Data: []byte(">r\nACGTACGTACGTACGTACGT\n")},
			"reference_raw": {Name: "r.seq", Format: "txt", Data: []byte("ACGTACGTACGTACGTACGT")},
			"variants":      {Name: "v.vcf", Format: "vcf", Data: []byte("#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\nchr1\t3\t.\tG\tT\t90\tPASS\t.\n")},
			"lineages":      {Name: "l.fasta", Format: "fasta", Data: []byte(">L1\nACGTACGTACGTACGTACGT\n>L2\nTTTTTTTTTTGGGGGGGGGG\n")},
		}
		h, err := jr.Start(galaxy.GenomeReconstructionWorkflow(), inputs, nil)
		if err != nil {
			t.Errorf("start job: %v", err)
			return
		}
		handles = append(handles, h)
	})
	env.Provider.OnTerminate(func(inst *cloud.Instance, interrupted bool) {
		if !interrupted {
			return
		}
		// Reclaim kills the newest running job.
		for i := len(handles) - 1; i >= 0; i-- {
			if handles[i].State() == galaxy.JobRunning {
				handles[i].Cancel()
				return
			}
		}
	})
	for i := 0; i < 10; i++ {
		if _, err := env.Provider.RequestSpot(catalog.M5XLarge, "ca-central-1", "job"); err != nil {
			t.Fatal(err)
		}
	}
	sweep := env.Engine.Every(15*time.Minute, "sweep", func(time.Time) { env.Provider.EvaluateOpenRequests() })
	defer sweep.Stop()
	_ = env.Engine.Run(env.Engine.Now().Add(20 * time.Hour))

	var cancelled, completed int
	for _, h := range handles {
		switch h.State() {
		case galaxy.JobCancelled:
			cancelled++
			if h.StepsCompleted() >= h.TotalSteps() {
				t.Fatal("cancelled job reports all steps done")
			}
		case galaxy.JobCompleted:
			completed++
		}
	}
	if cancelled == 0 {
		t.Fatalf("no job cancelled by a reclaim (completed=%d of %d launched)", completed, len(handles))
	}
}
