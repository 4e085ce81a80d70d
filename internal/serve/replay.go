package serve

import (
	"container/heap"
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"spotverse/internal/simclock"
)

// Replay drives a recorded request trace through the server's full
// gate pipeline — rate limiter, admission controller, queue, deadline,
// breaker, degrade — on the simulation clock, with virtual workers
// standing in for the live worker slots. The server must have been
// built with the engine as its Clock. Everything is sequential and
// virtual-timed, so a given (trace, config, seed) produces byte-stable
// outcomes: the deterministic substrate for overload and brownout
// tests.
//
// Virtual timing: each admitted request occupies one of Workers
// virtual workers for EndpointCost(endpoint) * ServiceTime of
// simulated time; queued requests start FIFO as workers free up. A
// request whose deadline expires before a worker reaches it is
// answered 504 without touching the backend — exactly the live path.
func (s *Server) Replay(eng *simclock.Engine, entries []TraceEntry, opts ReplayOptions) (*ReplaySummary, error) {
	if eng == nil {
		return nil, fmt.Errorf("serve: replay needs the simulation engine")
	}
	if any(s.clk) != any(eng) {
		return nil, fmt.Errorf("serve: replay server must use the engine as its clock")
	}
	start := eng.Now()
	r := &replayer{
		s:        s,
		eng:      eng,
		start:    start,
		workers:  s.cfg.Workers,
		outcomes: make([]replayOutcome, len(entries)),
	}
	for i := range entries {
		e := &entries[i]
		at := start.Add(time.Duration(e.AtMS) * time.Millisecond)
		r.settle(at, false)
		if err := r.advance(at); err != nil {
			return nil, err
		}
		r.arrive(i, e, at)
	}
	r.settle(time.Time{}, true)
	return r.summary(opts, entries)
}

// ReplayOptions tunes replay output.
type ReplayOptions struct {
	// Out, when set, receives the summary rendering (and per-request
	// lines when Verbose).
	Out io.Writer
	// Verbose prints one line per request in arrival order.
	Verbose bool
}

// replayOutcome is one request's recorded result.
type replayOutcome struct {
	status    Status
	code      int
	latencyMS int64
	note      string
}

// completion is one virtual worker's in-progress request.
type completion struct {
	finish time.Time
	seq    uint64
	ticket *Ticket
}

type completionHeap []completion

func (h completionHeap) Len() int { return len(h) }
func (h completionHeap) Less(i, j int) bool {
	if !h[i].finish.Equal(h[j].finish) {
		return h[i].finish.Before(h[j].finish)
	}
	return h[i].seq < h[j].seq
}
func (h completionHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x any)   { *h = append(*h, x.(completion)) }
func (h *completionHeap) Pop() any {
	old := *h
	n := len(old)
	c := old[n-1]
	*h = old[:n-1]
	return c
}

// queuedReq is one admitted request waiting for a virtual worker.
type queuedReq struct {
	idx     int
	entry   *TraceEntry
	arrival time.Time
	ticket  *Ticket
}

type replayer struct {
	s        *Server
	eng      *simclock.Engine
	start    time.Time
	workers  int
	seq      uint64
	busy     completionHeap
	fifo     []queuedReq
	outcomes []replayOutcome
}

// advance moves the simulation clock to t, firing scheduled events
// (monitor collections, chaos windows opening and closing) on the way.
func (r *replayer) advance(t time.Time) error {
	if !t.After(r.eng.Now()) {
		return nil
	}
	return r.eng.Run(t)
}

// settle processes virtual completions up to t (all of them when
// final), freeing workers and starting queued requests FIFO.
func (r *replayer) settle(t time.Time, final bool) {
	for len(r.busy) > 0 && (final || !r.busy[0].finish.After(t)) {
		c := heap.Pop(&r.busy).(completion)
		_ = r.advance(c.finish)
		c.ticket.Done()
		// The outcome was recorded at service start; completion only
		// releases the worker. Start queued requests until one sticks
		// (deadline-expired entries free the worker again immediately).
		for len(r.fifo) > 0 && len(r.busy) < r.workers {
			q := r.fifo[0]
			r.fifo = r.fifo[1:]
			if r.startService(q, c.finish) {
				break
			}
		}
	}
}

// record stores an outcome once; later writes to the same index are
// bugs and ignored.
func (r *replayer) record(idx int, st Status, code int, latencyMS int64, note string) {
	if r.outcomes[idx].code != 0 {
		return
	}
	if code == 0 {
		return
	}
	r.outcomes[idx] = replayOutcome{status: st, code: code, latencyMS: latencyMS, note: note}
}

// startService runs one admitted request on a freed virtual worker at
// sim time at; it reports whether the worker is now busy (false when
// the request's deadline had already expired and it was answered
// without service).
func (r *replayer) startService(q queuedReq, at time.Time) bool {
	_ = r.advance(at)
	q.ticket.Start()
	if at.Sub(q.arrival) > r.s.cfg.Deadline {
		q.ticket.Done()
		out := Outcome{Status: StatusDeadline, Code: 504}
		r.s.count(out)
		r.record(q.idx, StatusDeadline, 504, at.Sub(q.arrival).Milliseconds(), "deadline exceeded in queue")
		return false
	}
	req := &PlaceRequest{WorkloadID: q.entry.WorkloadID, Count: q.entry.Count, Exclude: q.entry.Exclude}
	out := r.s.process(context.Background(), q.entry.Endpoint, req)
	r.s.count(out)
	svc := time.Duration(EndpointCost(q.entry.Endpoint) * float64(r.s.cfg.ServiceTime))
	finish := at.Add(svc)
	r.seq++
	heap.Push(&r.busy, completion{finish: finish, seq: r.seq, ticket: q.ticket})
	r.record(q.idx, out.Status, out.Code, finish.Sub(q.arrival).Milliseconds(), out.Err)
	return true
}

// arrive pushes one trace entry through the gate at its arrival time.
func (r *replayer) arrive(idx int, e *TraceEntry, at time.Time) {
	ticket, refusal, ok := r.s.gate(e.Endpoint, e.WorkloadID)
	if !ok {
		r.s.count(refusal)
		r.record(idx, refusal.Status, refusal.Code, 0, refusal.Err)
		return
	}
	q := queuedReq{idx: idx, entry: e, arrival: at, ticket: ticket}
	if len(r.busy) < r.workers && len(r.fifo) == 0 {
		r.startService(q, at)
		return
	}
	r.fifo = append(r.fifo, q)
}

// ReplaySummary aggregates a replay's outcomes.
type ReplaySummary struct {
	Requests  int
	OK        int
	Degraded  int
	Shed      int
	Deadline  int
	Errors    int
	QueueHW   int
	QueueCap  int
	P50MS     int64
	P99MS     int64
	SimMS     int64
	Breakers  uint64
	ShedCause struct {
		Limiter   uint64
		Admission uint64
		Drain     uint64
	}
}

// Render writes the summary's fixed-format line (the thing smoke tests
// grep for) plus a breakdown block.
func (sum *ReplaySummary) Render(w io.Writer) {
	fmt.Fprintf(w, "replay: requests=%d ok=%d degraded=%d shed=%d deadline=%d error=%d queue_hw=%d/%d p50_ms=%d p99_ms=%d sim_ms=%d\n",
		sum.Requests, sum.OK, sum.Degraded, sum.Shed, sum.Deadline, sum.Errors,
		sum.QueueHW, sum.QueueCap, sum.P50MS, sum.P99MS, sum.SimMS)
	fmt.Fprintf(w, "  shed: limiter=%d admission=%d drain=%d breaker_trips=%d\n",
		sum.ShedCause.Limiter, sum.ShedCause.Admission, sum.ShedCause.Drain, sum.Breakers)
}

func (r *replayer) summary(opts ReplayOptions, entries []TraceEntry) (*ReplaySummary, error) {
	sum := &ReplaySummary{
		Requests: len(entries),
		QueueCap: r.s.cfg.QueueDepth,
		SimMS:    r.eng.Now().Sub(r.start).Milliseconds(),
		Breakers: r.s.brk.Trips(),
	}
	_, _, _, hw := r.s.adm.Stats()
	sum.QueueHW = hw
	stats := r.s.Stats()
	sum.ShedCause.Limiter = stats.ShedLimiter
	sum.ShedCause.Admission = stats.ShedAdmission
	sum.ShedCause.Drain = stats.ShedDrain
	answered := make([]int64, 0, len(entries))
	for i := range r.outcomes {
		o := &r.outcomes[i]
		switch o.status {
		case StatusOK:
			sum.OK++
			answered = append(answered, o.latencyMS)
		case StatusDegraded:
			sum.Degraded++
			answered = append(answered, o.latencyMS)
		case StatusShed:
			sum.Shed++
		case StatusDeadline:
			sum.Deadline++
		default:
			sum.Errors++
		}
	}
	sort.Slice(answered, func(i, j int) bool { return answered[i] < answered[j] })
	sum.P50MS = percentile(answered, 50)
	sum.P99MS = percentile(answered, 99)
	if opts.Out != nil {
		if opts.Verbose {
			for i := range r.outcomes {
				o := &r.outcomes[i]
				fmt.Fprintf(opts.Out, "#%05d at_ms=%d endpoint=%s status=%s code=%d latency_ms=%d %s\n",
					i, entries[i].AtMS, entries[i].Endpoint, o.status, o.code, o.latencyMS, o.note)
			}
		}
		sum.Render(opts.Out)
	}
	return sum, nil
}

// percentile returns the p-th percentile of sorted values (nearest
// rank), zero when empty.
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
