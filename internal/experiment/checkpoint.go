package experiment

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/cloud"
	"spotverse/internal/durable"
	"spotverse/internal/services/dynamo"
	"spotverse/internal/workload"
)

// dynamoCheckpointItem serialises a workload's checkpoint state the way
// the paper's NGS workload records per-file progress in DynamoDB. Items
// are keyed (workload, shardsDone) so a retried write for the same
// progress point is idempotent: PutIfAbsent either lands the record or
// finds it already durable — a duplicated two-minute-warning path can
// never clobber newer progress with older.
func dynamoCheckpointItem(w *workload.State, shardsDone int, now time.Time) dynamo.Item {
	return dynamo.Item{
		Key: checkpointKey(w.Spec.ID, shardsDone),
		Attrs: map[string]string{
			"workload":   w.Spec.ID,
			"shardsDone": strconv.Itoa(shardsDone),
			"shards":     strconv.Itoa(w.Spec.Shards),
			"updated":    now.Format(time.RFC3339),
		},
	}
}

// checkpointKey is the shard-scoped DynamoDB key for one progress point.
// The shard count is zero-padded to eight digits so lexicographic key
// order (what Scan returns) matches numeric progress order for any
// realistic shard count; four digits broke ordering at 10,000+ shards.
func checkpointKey(id string, shardsDone int) string {
	return fmt.Sprintf("ckpt#%s#%08d", id, shardsDone)
}

// checkpoints is a driver's checkpoint-workload state: the stores,
// manifest bookkeeping and rollback marks the checkpoint-only paths
// (notice handling, manifest verification on resume, rollback at
// termination) read. A driver holds one only when its workloads include
// checkpoint ones.
type checkpoints struct {
	// cfg is Run's config: its workloads, checkpoint store and durability
	// mode.
	cfg RunConfig
	// durable is the manifest durability layer (nil when DurabilityOff).
	durable *durable.Store
	marks   []checkpointMark
}

// checkpointMark is one workload's checkpoint bookkeeping.
type checkpointMark struct {
	// failed marks a workload whose latest two-minute-warning checkpoint
	// write did not become durable; its banked progress is rolled back at
	// termination.
	failed bool
	// ver is the last manifest version written; shards is the shard count
	// of the last manifest acknowledged durable (the value progress is
	// clamped to).
	ver, shards int
}

// setupCheckpoints gives the driver its checkpoint state when the
// workloads include checkpoint ones: it creates the stores and, in the
// replicated mode, schedules the manifest anti-entropy sweep.
func (d *driver) setupCheckpoints(cfg RunConfig) error {
	if !slices.ContainsFunc(cfg.Workloads, func(w *workload.State) bool { return w.Spec.Kind == workload.KindCheckpoint }) {
		return nil
	}
	c := &checkpoints{cfg: cfg, marks: make([]checkpointMark, len(cfg.Workloads))}
	d.ckpt = c
	if err := d.env.Dynamo.CreateTable(CheckpointTable); err != nil {
		return err
	}
	if cfg.CheckpointVia == CheckpointEFS {
		return d.env.EFS.Create(checkpointBucket, checkpointBucketRegion)
	}
	if err := d.env.S3.CreateBucket(checkpointBucket, checkpointBucketRegion); err != nil {
		return err
	}
	if cfg.Durability == DurabilityOff {
		return nil
	}
	ds, err := durable.New(d.env.Engine, d.env.S3, durable.Config{
		Primary:        checkpointBucket,
		PrimaryRegion:  checkpointBucketRegion,
		Replica:        CheckpointReplicaBucket,
		ReplicaRegion:  checkpointReplicaRegion,
		Replicate:      cfg.Durability == DurabilityReplicated,
		ReplicationLag: checkpointReplicationLag,
	})
	if err != nil {
		return err
	}
	c.durable = ds
	if cfg.Durability != DurabilityReplicated {
		return nil
	}
	// Anti-entropy rides the same 15-minute cadence as the open-request
	// sweep: re-replicate any manifest copy that has diverged (corrupted,
	// wiped, or version-lagged).
	return d.env.CloudWatch.Schedule("checkpoint-anti-entropy", DefaultSweepInterval, func(time.Time) {
		//spotverse:allow errdrop anti-entropy is best-effort: a failed sweep retries next interval and surfaces in durable.Stats repair counters
		_, _ = ds.SyncReplicas(manifestPrefix)
	})
}

// manifestKey is the durable manifest's S3 key for one workload.
func manifestKey(id string) string { return manifestPrefix + id }

// checkpointWrite persists a workload's shard slice from a region. A
// non-nil error means the slice is not durable.
func (d *driver) checkpointWrite(key string, size int64, from catalog.Region) error {
	if d.ckpt.cfg.CheckpointVia == CheckpointEFS {
		if !d.env.EFS.Mounted(checkpointBucket, from) {
			if err := d.env.EFS.Replicate(checkpointBucket, from); err != nil {
				return err
			}
		}
		return d.env.EFS.WriteSized(checkpointBucket, key, size, from)
	}
	return d.env.S3.PutSized(checkpointBucket, key, size, from)
}

// checkpointRead re-fetches a workload's data on resume.
func (d *driver) checkpointRead(key string, from catalog.Region) {
	if d.ckpt.cfg.CheckpointVia == CheckpointEFS {
		if !d.env.EFS.Exists(checkpointBucket, key) {
			return
		}
		if !d.env.EFS.Mounted(checkpointBucket, from) {
			_ = d.env.EFS.Replicate(checkpointBucket, from)
		}
		_, _ = d.env.EFS.ReadSized(checkpointBucket, key, from)
		return
	}
	if d.env.S3.Exists(checkpointBucket, key) {
		_, _ = d.env.S3.Get(checkpointBucket, key, from)
	}
}

// onNotice handles the two-minute warning: checkpoint workloads persist
// their progress to DynamoDB and upload the in-flight shard slice to S3,
// exactly the paper's interruption path.
func (d *driver) onNotice(inst *cloud.Instance) {
	i, ok := d.index(inst.Tag)
	if !ok || d.ckpt == nil {
		return
	}
	c, w, mark := d.ckpt, d.ckpt.cfg.Workloads[i], &d.ckpt.marks[i]
	if w.Completed || w.Spec.Kind != workload.KindCheckpoint {
		return
	}
	now := d.env.Engine.Now()
	d.timeline.add(Event{At: now, Kind: EventNotice, Workload: w.Spec.ID, Instance: inst.ID, Region: inst.Region(), Lifecycle: inst.Lifecycle})
	// Progress this checkpoint will claim once the instance dies: shards
	// banked so far plus whole shards the current attempt has finished.
	done := w.ShardsDone
	if d.activeInst[i] == inst {
		done += w.ShardsAt(now.Sub(inst.LaunchedAt))
	}
	failed := d.checkpointWrite("ckpt/"+w.Spec.ID, w.CheckpointBytes(), inst.Region()) != nil
	// Idempotent write keyed (workload, shardsDone): a duplicate for the
	// same progress point finding the item already present is success.
	if err := d.env.Dynamo.PutIfAbsent(CheckpointTable, dynamoCheckpointItem(w, done, now)); err != nil &&
		!errors.Is(err, dynamo.ErrConditionFailed) {
		failed = true
	}
	if c.durable != nil {
		// Durable modes additionally write a checksummed progress
		// manifest; only an acknowledged manifest raises the progress
		// ceiling the termination path clamps to.
		ver := mark.ver + 1
		m := durable.Manifest{
			Workload:   w.Spec.ID,
			ShardsDone: done,
			Shards:     w.Spec.Shards,
			SizeBytes:  w.CheckpointBytes(),
			Version:    ver,
			Updated:    now,
		}
		if err := c.durable.Put(manifestKey(w.Spec.ID), m, inst.Region()); err != nil {
			failed = true
		} else {
			mark.ver = ver
			mark.shards = max(mark.shards, done)
		}
	}
	mark.failed = failed
}

// resume runs at a launch. A resumed checkpoint attempt re-downloads its
// dataset slice from the checkpoint bucket (cross-region transfer bills
// apply), and in durable modes checks the progress manifest before it
// trusts its banked shards. The replicated mode reads verified with
// failover; shards the store cannot certify are dropped, counted lost
// and recomputed. The single-bucket ablation reads blind: an unreadable
// manifest loses everything, and a corrupt-but-parsable one is consumed
// without notice.
func (d *driver) resume(i int, from catalog.Region) {
	c, w := d.ckpt, d.ckpt.cfg.Workloads[i]
	if w.Spec.Kind != workload.KindCheckpoint || w.Attempts <= 1 || w.ShardsDone <= 0 {
		return
	}
	d.checkpointRead("ckpt/"+w.Spec.ID, from)
	if c.durable == nil {
		return
	}
	key := manifestKey(w.Spec.ID)
	recoverable := 0
	switch c.cfg.Durability {
	case DurabilityReplicated:
		if m, err := c.durable.GetVerified(key, from); err == nil {
			recoverable = m.ShardsDone
		}
	case DurabilitySingle:
		// The blind reader trusts whatever it parsed — including a
		// corrupt progress value — and resumes from there.
		if m, intact, err := c.durable.GetBlind(key, from); err == nil {
			recoverable = m.ShardsDone
			if !intact {
				d.undetectedCorruption++
			}
		}
	}
	if lost := w.ShardsDone - recoverable; lost > 0 {
		w.DropShards(lost)
		d.lostShards += lost
	}
}

// bankProgress accounts an interrupted attempt that computed for elapsed
// time. Progress whose checkpoint write never became durable is rolled
// back: the next attempt must recompute those shards.
func (d *driver) bankProgress(i int, elapsed time.Duration) {
	w, mark := d.ckpt.cfg.Workloads[i], &d.ckpt.marks[i]
	banked := w.CreditProgress(elapsed)
	if d.ckpt.durable != nil {
		// Durable modes trust only the last acknowledged manifest: a
		// shard finished inside the warning window, or banked past a
		// failed manifest write, is recomputed next attempt.
		if w.ShardsDone > mark.shards {
			w.DropShards(w.ShardsDone - mark.shards)
		}
	} else if banked > 0 && mark.failed {
		w.DropShards(banked)
	}
	mark.failed = false
}
