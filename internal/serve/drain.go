package serve

import (
	"context"
	"errors"
	"fmt"
)

// ErrDrainTimeout reports that in-flight requests did not settle
// inside the drain deadline; the stragglers were aborted via their
// own request deadlines and still each received an explicit response.
var ErrDrainTimeout = errors.New("serve: drain deadline exceeded with requests still in flight")

// Drain performs graceful shutdown:
//
//  1. stop accepting — readyz flips to 503 draining, admission closes,
//     and every new request is refused with 503 + Retry-After;
//  2. finish in-flight — requests waiting for a worker slot and
//     requests executing run to completion, bounded by ctx (the caller
//     passes a context carrying the drain deadline); past the deadline
//     Drain records ErrDrainTimeout and keeps waiting for the
//     stragglers, which their own request deadlines abort and answer
//     explicitly;
//  3. flush — the backend's Flush barrier runs, then every OnDrain
//     hook (trace recorders etc.). Admission is closed and idle, so no
//     backend call runs during or after the flush.
//
// Drain is idempotent: the second and later calls wait for the first
// to finish and return its error. A clean drain returns nil — the
// caller exits 0.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		<-s.drained
		return s.drainErr
	}
	defer close(s.drained)

	s.adm.Close()
	var errs []error
	if !s.adm.AwaitIdle(ctx.Done()) {
		errs = append(errs, ErrDrainTimeout)
		s.adm.AwaitIdle(nil)
	}

	// Flush with a fresh context: the drain deadline may already be
	// spent, but the flush barrier must still run (it is the "journal
	// flushed" guarantee SIGTERM promises).
	if f, ok := s.backend.(Flusher); ok {
		if err := f.Flush(context.Background()); err != nil {
			errs = append(errs, fmt.Errorf("serve: drain flush: %w", err))
		}
	}
	for _, hook := range s.cfg.OnDrain {
		if err := hook(); err != nil {
			errs = append(errs, fmt.Errorf("serve: drain hook: %w", err))
		}
	}
	s.drainErr = errors.Join(errs...)
	return s.drainErr
}

// Draining reports whether drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }
