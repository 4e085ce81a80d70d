// Package chaos is a deterministic, seeded fault injector for the
// simulated control plane. Every internal/services/* package exposes a
// SetFault-style interceptor; an Injector supplies those interceptors
// from a declarative Schedule of per-service error rates, latency
// spikes, regional brownouts, and dropped EventBridge deliveries.
//
// The paper's data plane already fails (spot reclaims, regional
// outages); this package makes the control plane fail too,
// the way real AWS does, so the Controller's hardening — backoff,
// circuit breakers, the notice-loss recovery sweep, the degraded-mode
// Optimizer — can be measured instead of assumed.
//
// Faults draw from dedicated simclock RNG streams (one per service), so
// enabling injection never perturbs the draws seen by the market,
// provider, or strategies: a run with an all-zero Schedule is
// bit-identical to a run without the injector.
package chaos

import (
	"errors"
	"fmt"

	"spotverse/internal/catalog"
)

// Fault classes, usable with errors.Is against any injected error.
var (
	// Transient is a retryable one-off service error.
	Transient = errors.New("chaos: transient service error")
	// Throttle is a rate-limit rejection.
	Throttle = errors.New("chaos: request throttled")
	// Unavailable is a service brownout (sustained regional failure).
	Unavailable = errors.New("chaos: service unavailable")
	// Partitioned is a regional network partition: the caller cannot
	// reach the service at all. Distinct from Unavailable so consumers
	// can tell "the service is down" from "the network between us is
	// cut" — a partitioned control plane may still be serving the other
	// side of the partition (the split-brain scenario).
	Partitioned = errors.New("chaos: network partitioned")
)

// Service names used in Schedule maps and Error values.
const (
	ServiceDynamo      = "dynamo"
	ServiceS3          = "s3"
	ServiceEFS         = "efs"
	ServiceLambda      = "lambda"
	ServiceEventBridge = "eventbridge"
	ServiceCloudWatch  = "cloudwatch"
	ServiceStepFn      = "stepfn"
	// ServiceServe is the placement service's backend path
	// (internal/serve.SimBackend), so brownouts and error rates can hit
	// the serving daemon directly and exercise its degraded mode.
	ServiceServe = "serve"
)

// Error is one injected fault. It unwraps to its Class sentinel, so
// consumers can errors.Is(err, chaos.Unavailable) and errors.As out the
// (service, region) pair for per-(service, region) breaker keying.
type Error struct {
	// Class is one of Transient, Throttle, Unavailable, Partitioned.
	Class error
	// Service names the failing service (Service* constants).
	Service string
	// Op is the API call that failed, e.g. "put" or "invoke:fn".
	Op string
	// Region is the affected region; empty for non-regional calls.
	Region catalog.Region
}

// Error implements error.
func (e *Error) Error() string {
	if e.Region != "" {
		return fmt.Sprintf("%v (%s %s in %s)", e.Class, e.Service, e.Op, e.Region)
	}
	return fmt.Sprintf("%v (%s %s)", e.Class, e.Service, e.Op)
}

// Unwrap exposes the class sentinel to errors.Is.
func (e *Error) Unwrap() error { return e.Class }

func className(class error) string {
	switch class {
	case Transient:
		return "transient"
	case Throttle:
		return "throttle"
	case Unavailable:
		return "unavailable"
	case Partitioned:
		return "partitioned"
	default:
		return "other"
	}
}
