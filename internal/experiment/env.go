// Package experiment provides the evaluation harness: it assembles a
// simulated cloud environment, drives a set of workloads under a
// placement strategy, and collects the paper's metrics — interruption
// counts and their regional distribution, completion-time series,
// makespan, and the full differential cost model (instances + Lambda +
// DynamoDB + S3 storage/transfer + EventBridge + Step Functions +
// CloudWatch).
package experiment

import (
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/cloud"
	"spotverse/internal/core"
	"spotverse/internal/cost"
	"spotverse/internal/market"
	"spotverse/internal/services/cloudwatch"
	"spotverse/internal/services/dynamo"
	"spotverse/internal/services/efs"
	"spotverse/internal/services/eventbridge"
	"spotverse/internal/services/lambda"
	"spotverse/internal/services/s3"
	"spotverse/internal/services/stepfn"
	"spotverse/internal/simclock"
)

// Env is one fully-wired simulated cloud.
type Env struct {
	Seed       int64
	Engine     *simclock.Engine
	Market     *market.Model
	Provider   *cloud.Provider
	Ledger     *cost.Ledger
	S3         *s3.Store
	EFS        *efs.Service
	Dynamo     *dynamo.Store
	Lambda     *lambda.Runtime
	Bus        *eventbridge.Bus
	CloudWatch *cloudwatch.Service
	StepFn     *stepfn.Machine
}

// NewEnv assembles an environment over the default catalog, started at
// the simulation epoch.
func NewEnv(seed int64) *Env {
	return NewEnvAt(seed, simclock.Epoch)
}

// NewEnvAt assembles an environment whose clock and market start at the
// given instant. The market is a view over the shared per-(seed, start)
// snapshot (see SetMarketCache); the values it serves do not depend on
// the sharing.
func NewEnvAt(seed int64, start time.Time) *Env {
	eng := simclock.NewEngineAt(start)
	mkt := acquireMarket(seed, start)
	cat := mkt.Catalog()
	ledger := cost.NewLedger()
	return &Env{
		Seed:       seed,
		Engine:     eng,
		Market:     mkt,
		Provider:   cloud.New(eng, mkt, seed),
		Ledger:     ledger,
		S3:         s3.New(eng, cat, ledger),
		EFS:        efs.New(cat, ledger),
		Dynamo:     dynamo.New(ledger),
		Lambda:     lambda.New(eng, ledger),
		Bus:        eventbridge.New(ledger),
		CloudWatch: cloudwatch.New(eng, ledger),
		StepFn:     stepfn.MustNew(eng, ledger, stepfn.Config{MaxAttempts: 5, BaseBackoff: 30 * time.Second}),
	}
}

// Catalog is a convenience accessor.
func (e *Env) Catalog() *catalog.Catalog { return e.Market.Catalog() }

// NewSpotVerse wires a core.SpotVerse onto the Env's engine, market,
// provider and managed services.
func NewSpotVerse(env *Env, cfg core.Config) (*core.SpotVerse, error) {
	return core.New(cfg, core.Deps{
		Engine:     env.Engine,
		Market:     env.Market,
		Provider:   env.Provider,
		Dynamo:     env.Dynamo,
		Lambda:     env.Lambda,
		Bus:        env.Bus,
		CloudWatch: env.CloudWatch,
		StepFn:     env.StepFn,
	})
}
