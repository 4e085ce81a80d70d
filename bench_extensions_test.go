package spotverse

// Benches for the Section 7 future-work extensions and for the hot paths
// of the core library.

import (
	"testing"
	"time"

	"spotverse/internal/bioinf/fasta"
	"spotverse/internal/bioinf/phylo"
	"spotverse/internal/bioinf/seq"
	"spotverse/internal/bioinf/synth"
	"spotverse/internal/bioinf/variant"
	"spotverse/internal/bioinf/vcf"
	"spotverse/internal/catalog"
	"spotverse/internal/core"
	"spotverse/internal/experiment"
	"spotverse/internal/galaxy"
	"spotverse/internal/market"
	"spotverse/internal/simclock"
)

// BenchmarkExtPredictive compares SpotVerse, the learning strategy, and
// the price broker under hour-of-week interruption seasonality.
func BenchmarkExtPredictive(b *testing.B) {
	var res *experiment.ExtPredictiveResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.ExtPredictive(benchSeed, 24)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(res.SpotVerse.Interruptions), "spotverse_interruptions")
	b.ReportMetric(float64(res.Predictive.Interruptions), "predictive_interruptions")
	b.ReportMetric(float64(res.SkyPilot.Interruptions), "skypilot_interruptions")
	b.ReportMetric(res.Predictive.TotalCostUSD, "predictive_cost_usd")
}

// BenchmarkExtCheckpointStores compares S3 vs EFS checkpoint channels.
func BenchmarkExtCheckpointStores(b *testing.B) {
	var res *experiment.ExtCheckpointStoresResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.ExtCheckpointStores(benchSeed, 20)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.S3.TotalCostUSD, "s3_cost_usd")
	b.ReportMetric(res.EFS.TotalCostUSD, "efs_cost_usd")
}

// BenchmarkExtScoringModes compares the multi-provider scoring
// degradations.
func BenchmarkExtScoringModes(b *testing.B) {
	var res *experiment.ExtScoringModesResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.ExtScoringModes(benchSeed, 20)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(res.Combined.Interruptions), "combined_interruptions")
	b.ReportMetric(float64(res.StabilityOnly.Interruptions), "stability_only_interruptions")
	b.ReportMetric(float64(res.PriceOnly.Interruptions), "price_only_interruptions")
}

// --- Micro-benchmarks for hot paths ---

func BenchmarkMarketSpotPrice(b *testing.B) {
	mkt := market.New(catalog.Default(), benchSeed, simclock.Epoch)
	at := simclock.Epoch.Add(30 * 24 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mkt.RegionSpotPrice(catalog.M5XLarge, "ca-central-1", at); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarketAdvisorSnapshot(b *testing.B) {
	mkt := market.New(catalog.Default(), benchSeed, simclock.Epoch)
	at := simclock.Epoch.Add(30 * 24 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mkt.AdvisorSnapshot(catalog.M5XLarge, at); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizerTopRegions(b *testing.B) {
	sim := NewSimulation(benchSeed)
	mgr, err := sim.NewManager(core.Config{InstanceType: M5XLarge, Threshold: 5, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	if err := mgr.Monitor().CollectNow(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.Optimizer().TopRegions(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConsensusReconstruction(b *testing.B) {
	rng := simclock.Stream(benchSeed, "bench-consensus")
	ref, err := synth.Genome(rng, 30000) // SARS-CoV-2-scale genome
	if err != nil {
		b.Fatal(err)
	}
	f, err := synth.Mutate(rng, ref, 0.005, 0.001)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := variant.Consensus(ref, f, variant.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKmerProfile(b *testing.B) {
	rng := simclock.Stream(benchSeed, "bench-kmer")
	g, err := synth.Genome(rng, 30000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seq.KmerProfile(g, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNeighborJoining(b *testing.B) {
	rng := simclock.Stream(benchSeed, "bench-nj")
	const taxa = 24
	names := make([]string, taxa)
	seqs := make([]string, taxa)
	for i := range names {
		names[i] = string(rune('A' + i))
		g, err := synth.Genome(rng, 2000)
		if err != nil {
			b.Fatal(err)
		}
		seqs[i] = g
	}
	dist, err := phylo.DistanceMatrix(names, seqs, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phylo.NeighborJoining(names, dist); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGalaxyGenomeReconstructionWorkflow(b *testing.B) {
	g := galaxy.New(galaxy.Config{AdminUsers: []string{"a@x"}, APIKeys: map[string]string{"a@x": "k"}})
	if err := galaxy.InstallStandardTools(g, "a@x"); err != nil {
		b.Fatal(err)
	}
	rng := simclock.Stream(benchSeed, "bench-galaxy")
	ref, err := synth.Genome(rng, 5000)
	if err != nil {
		b.Fatal(err)
	}
	isolate, err := synth.Mutate(rng, ref, 0.006, 0.001)
	if err != nil {
		b.Fatal(err)
	}
	lineages := []fasta.Record{{ID: "B.1.1.7", Seq: ref}}
	for _, name := range []string{"B.1.351", "P.1"} {
		other, err := synth.Genome(rng, 5000)
		if err != nil {
			b.Fatal(err)
		}
		lineages = append(lineages, fasta.Record{ID: name, Seq: other})
	}
	inputs := map[string]galaxy.Dataset{
		"reference":     {Name: "ref.fasta", Format: "fasta", Data: []byte(fasta.String([]fasta.Record{{ID: "ref", Seq: ref}}))},
		"reference_raw": {Name: "ref.seq", Format: "txt", Data: []byte(ref)},
		"variants":      {Name: "iso.vcf", Format: "vcf", Data: []byte(vcf.String(isolate))},
		"lineages":      {Name: "lineages.fasta", Format: "fasta", Data: []byte(fasta.String(lineages))},
	}
	wf := galaxy.GenomeReconstructionWorkflow()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.RunWorkflow(wf, inputs, nil); err != nil {
			b.Fatal(err)
		}
	}
}
