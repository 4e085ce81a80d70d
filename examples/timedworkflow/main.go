// Timed workflow: run the 23-step Genome Reconstruction workflow as a
// timed Galaxy job on the simulation clock, then re-run it on a spot
// instance in the riskiest region and watch a real reclaim cancel it
// mid-step — the exact failure mode the paper's standard workloads
// suffer, which is why they must restart from zero.
package main

import (
	"fmt"
	"log"
	"time"

	"spotverse/internal/bioinf/fasta"
	"spotverse/internal/bioinf/synth"
	"spotverse/internal/bioinf/vcf"
	"spotverse/internal/catalog"
	"spotverse/internal/cloud"
	"spotverse/internal/experiment"
	"spotverse/internal/galaxy"
	"spotverse/internal/simclock"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func buildInputs() (map[string]galaxy.Dataset, error) {
	rng := simclock.Stream(77, "timed-example")
	ref, err := synth.Genome(rng, 6000)
	if err != nil {
		return nil, err
	}
	isolate, err := synth.Mutate(rng, ref, 0.006, 0.001)
	if err != nil {
		return nil, err
	}
	lineages := []fasta.Record{{ID: "B.1.1.7", Seq: ref}}
	for _, name := range []string{"B.1.351", "P.1"} {
		g, err := synth.Genome(rng, 6000)
		if err != nil {
			return nil, err
		}
		lineages = append(lineages, fasta.Record{ID: name, Seq: g})
	}
	return map[string]galaxy.Dataset{
		"reference":     {Name: "ref.fasta", Format: "fasta", Data: []byte(fasta.String([]fasta.Record{{ID: "ref", Seq: ref}}))},
		"reference_raw": {Name: "ref.seq", Format: "txt", Data: []byte(ref)},
		"variants":      {Name: "iso.vcf", Format: "vcf", Data: []byte(vcf.String(isolate))},
		"lineages":      {Name: "lineages.fasta", Format: "fasta", Data: []byte(fasta.String(lineages))},
	}, nil
}

func run() error {
	inputs, err := buildInputs()
	if err != nil {
		return err
	}

	// Part 1: a clean timed run.
	env := experiment.NewEnv(77)
	g := galaxy.New(galaxy.Config{AdminUsers: []string{"a@x"}, APIKeys: map[string]string{"a@x": "k"}})
	if err := galaxy.InstallStandardTools(g, "a@x"); err != nil {
		return err
	}
	jr := galaxy.NewJobRunner(env.Engine, g, galaxy.JobOptions{BasePerStep: 25 * time.Minute})
	h, err := jr.Start(galaxy.GenomeReconstructionWorkflow(), inputs, nil)
	if err != nil {
		return err
	}
	if err := env.Engine.Run(time.Time{}); err != nil {
		return err
	}
	fmt.Printf("clean run: %d/%d steps in %.1f simulated hours\n",
		h.StepsCompleted(), h.TotalSteps(), h.Elapsed().Hours())

	// Part 2: the same job on a spot instance in ca-central-1, where a
	// reclaim will eventually land mid-workflow.
	env2 := experiment.NewEnv(78)
	jr2 := galaxy.NewJobRunner(env2.Engine, g, galaxy.JobOptions{BasePerStep: 25 * time.Minute})
	var jobs []*galaxy.JobHandle
	env2.Provider.OnLaunch(func(inst *cloud.Instance) {
		job, err := jr2.Start(galaxy.GenomeReconstructionWorkflow(), inputs, nil)
		if err != nil {
			return
		}
		jobs = append(jobs, job)
		fmt.Printf("  %s launched in %s, workflow started\n", inst.ID, inst.Region())
	})
	env2.Provider.OnTerminate(func(inst *cloud.Instance, interrupted bool) {
		if !interrupted {
			return
		}
		for i := len(jobs) - 1; i >= 0; i-- {
			if jobs[i].State() == galaxy.JobRunning {
				jobs[i].Cancel()
				fmt.Printf("  %s reclaimed after %.1fh: workflow cancelled at step %d/%d — restart from zero\n",
					inst.ID, env2.Engine.Since(inst.LaunchedAt).Hours(), jobs[i].StepsCompleted(), jobs[i].TotalSteps())
				return
			}
		}
	})
	for i := 0; i < 6; i++ {
		if _, err := env2.Provider.RequestSpot(catalog.M5XLarge, "ca-central-1", "wf"); err != nil {
			return err
		}
	}
	sweep := env2.Engine.Every(15*time.Minute, "sweep", func(time.Time) { env2.Provider.EvaluateOpenRequests() })
	defer sweep.Stop()
	if err := env2.Engine.Run(env2.Engine.Now().Add(15 * time.Hour)); err != nil {
		return err
	}
	var done, cancelled int
	for _, j := range jobs {
		switch j.State() {
		case galaxy.JobCompleted:
			done++
		case galaxy.JobCancelled:
			cancelled++
		}
	}
	fmt.Printf("after 15h in the risky region: %d workflows finished, %d killed mid-run\n", done, cancelled)
	return nil
}
