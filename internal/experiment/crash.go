package experiment

import (
	"fmt"
	"io"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/chaos"
	"spotverse/internal/core"
	"spotverse/internal/report"
)

// ---------------------------------------------------------------------
// Crash: controller kills and checkpoint-store damage, journaled
// SpotVerse vs the no-journal / unverified-store ablation.
// ---------------------------------------------------------------------

// CrashWorkloads is the checkpoint-workload count per crash cell.
const CrashWorkloads = 20

// crashRecoveryAfter is how long a dropped-notice migration parks in
// the Controller's pending registry before the recovery sweep retries
// it. The crash sweep stretches it so pending state is reliably alive
// when a controller kill lands — the window the journal must cover.
const crashRecoveryAfter = 2 * time.Hour

// Crash cell labels.
const (
	// StrategyJournaled is the full durability stack: DynamoDB
	// write-ahead journal on the Controller, verified checkpoint
	// manifests replicated to a standby bucket, anti-entropy sweep.
	StrategyJournaled = "spotverse-journal"
	// StrategyNoJournal is the ablation: controller state lives only in
	// memory, manifests are single-bucket and read without verification.
	StrategyNoJournal = "spotverse-nojournal"
)

// CrashStrategies is the default crash sweep, in render order.
var CrashStrategies = []string{StrategyJournaled, StrategyNoJournal}

// CrashRow is one cell of the crash sweep.
type CrashRow struct {
	Strategy  string
	Workloads int
	Completed int
	// CompletionRate is Completed/Workloads.
	CompletionRate float64
	Interruptions  int
	TotalCostUSD   float64

	// Restarts counts controller kills survived; Replayed the journal
	// entries rebuilt into the new incarnation; DroppedPendings the
	// pending migrations a kill destroyed with nothing to replay.
	Restarts        int
	Replayed        int
	DroppedPendings int
	// RecoveryMinutes is total sim time replayed migrations took to
	// re-resolve after restarts.
	RecoveryMinutes float64

	// LostShards counts durably-claimed shards unrecoverable at resume;
	// DuplicateRelaunches exactly-once violations; RefusedRelaunches
	// relaunches the journal's conditional commit blocked; Recomputed
	// shards rolled back and recomputed.
	LostShards          int
	DuplicateRelaunches int
	RefusedRelaunches   int
	Recomputed          int

	// CorruptReads counts bit-flipped S3 Gets served; Detected the
	// integrity-check catches; Undetected blind reads that consumed
	// corrupt data; Failovers and Repairs the replica machinery at work.
	CorruptReads int
	Detected     int
	Undetected   int
	Failovers    int
	Repairs      int
}

// crashSchedule is the crash sweep's fault plan. Every interruption
// notice is dropped at the bus, so each migration parks in the
// Controller's pending registry until the notice-loss recovery sweep
// retries it (crashRecoveryAfter) — which is exactly the in-memory
// state a controller kill destroys. Manifest reads are bit-flipped
// through the busy morning window; the standby bucket is wiped mid-run
// and the primary late, never both at once — each loss alone must be
// survivable.
func crashSchedule(start time.Time, intensity chaos.Intensity) chaos.Schedule {
	return chaos.Schedule{
		Intensity:       intensity,
		DropRate:        1.0,
		DropDetailTypes: []string{core.DetailTypeInterruption},
		ControllerKills: []chaos.ControllerKill{
			{At: start.Add(3 * time.Hour)},
			{At: start.Add(6 * time.Hour)},
			{At: start.Add(9 * time.Hour)},
		},
		ObjectCorruptions: []chaos.ObjectCorruption{{
			Bucket:    checkpointBucket,
			KeyPrefix: manifestPrefix,
			Rate:      0.35,
			Window:    chaos.Window{From: start.Add(2 * time.Hour), To: start.Add(14 * time.Hour)},
		}},
		BucketLosses: []chaos.BucketLoss{
			{Bucket: CheckpointReplicaBucket, At: start.Add(16 * time.Hour)},
			{Bucket: checkpointBucket, At: start.Add(24 * time.Hour)},
		},
	}
}

// crashCell runs one strategy through the crash schedule.
func crashCell(name string, seed int64, intensity chaos.Intensity, n int) (*CrashRow, error) {
	env := NewEnv(seed)
	start := env.Engine.Now()
	inj := chaos.NewInjector(env.Engine, seed, crashSchedule(start, intensity))

	cfg := core.Config{
		InstanceType:     catalog.M5XLarge,
		Threshold:        5,
		FixedStartRegion: BaselineRegionM5XLarge,
		Seed:             seed,
		RecoveryAfter:    crashRecoveryAfter,
	}
	durability := DurabilitySingle
	if name == StrategyJournaled {
		cfg.Journal = true
		durability = DurabilityReplicated
	}
	useJitteredStepFn(env, seed)
	ApplyChaos(env, inj)
	sv, err := NewSpotVerse(env, cfg)
	if err != nil {
		return nil, fmt.Errorf("crash %s: %w", name, err)
	}
	ScheduleControllerKills(env, inj, sv)

	ws, err := genCheckpoint(seed, n)
	if err != nil {
		return nil, err
	}
	res, err := Run(env, RunConfig{
		Workloads:       ws,
		Strategy:        sv,
		InstanceType:    catalog.M5XLarge,
		AllowIncomplete: true,
		Durability:      durability,
	})
	if err != nil {
		return nil, fmt.Errorf("crash %s: %w", name, err)
	}

	recomputed := 0
	for _, w := range ws {
		recomputed += w.Recomputed
	}
	restarts, replayed, dropped, refused, _, recovery := sv.Controller().RecoveryStats()
	row := &CrashRow{
		Strategy:            name,
		Workloads:           res.Workloads,
		Completed:           res.Completed,
		CompletionRate:      float64(res.Completed) / float64(res.Workloads),
		Interruptions:       res.Interruptions,
		TotalCostUSD:        res.TotalCostUSD,
		Restarts:            restarts,
		Replayed:            replayed,
		DroppedPendings:     dropped,
		RecoveryMinutes:     recovery.Minutes(),
		LostShards:          res.LostShards,
		DuplicateRelaunches: res.DuplicateRelaunches,
		RefusedRelaunches:   refused,
		Recomputed:          recomputed,
		CorruptReads:        int(env.S3.CorruptedReads()),
		Detected:            res.Durability.CorruptDetected,
		Undetected:          res.UndetectedCorruption,
		Failovers:           res.Durability.Failovers,
		Repairs:             res.Durability.Repairs,
	}
	return row, nil
}

// Crash runs the crash sweep at the given background-fault intensity:
// the journaled stack and the no-journal ablation through the same
// kill/corruption/loss schedule. The two cells are independent runs and
// fan out across the worker pool.
func Crash(seed int64, intensity chaos.Intensity) ([]CrashRow, error) {
	cells, err := Gather(len(CrashStrategies), func(i int) (*CrashRow, error) {
		return crashCell(CrashStrategies[i], seed, intensity, CrashWorkloads)
	})
	if err != nil {
		return nil, err
	}
	out := make([]CrashRow, 0, len(cells))
	for _, row := range cells {
		out = append(out, *row)
	}
	return out, nil
}

// RenderCrash prints the crash sweep table.
func RenderCrash(w io.Writer, rows []CrashRow) error {
	t := report.NewTable("Crash-restart and checkpoint-damage recovery (3 controller kills, manifest corruption 2h-14h, replica loss 16h, primary loss 24h)",
		"strategy", "completed", "rate", "cost", "interrupts", "restarts", "replayed",
		"dropped", "recovery-min", "lost-shards", "dup-relaunch", "refused", "recomputed",
		"corrupt-reads", "detected", "undetected", "failovers", "repairs")
	for _, r := range rows {
		t.MustAddRow(
			r.Strategy,
			fmt.Sprintf("%d/%d", r.Completed, r.Workloads),
			report.Pct(r.CompletionRate),
			report.USD(r.TotalCostUSD),
			fmt.Sprintf("%d", r.Interruptions),
			fmt.Sprintf("%d", r.Restarts),
			fmt.Sprintf("%d", r.Replayed),
			fmt.Sprintf("%d", r.DroppedPendings),
			report.F(r.RecoveryMinutes, 1),
			fmt.Sprintf("%d", r.LostShards),
			fmt.Sprintf("%d", r.DuplicateRelaunches),
			fmt.Sprintf("%d", r.RefusedRelaunches),
			fmt.Sprintf("%d", r.Recomputed),
			fmt.Sprintf("%d", r.CorruptReads),
			fmt.Sprintf("%d", r.Detected),
			fmt.Sprintf("%d", r.Undetected),
			fmt.Sprintf("%d", r.Failovers),
			fmt.Sprintf("%d", r.Repairs),
		)
	}
	return t.Render(w)
}
