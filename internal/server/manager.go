// Package server turns the simulator into a long-lived, multi-tenant
// service: a run manager owning a bounded submission queue with
// backpressure, a worker pool executing scenario runs under per-run
// cancellation contexts, a run registry with lifecycle states, and a
// capped in-memory result store. Each run records into its own telemetry
// sink so metrics and traces never bleed across tenants. The HTTP API in
// api.go exposes the manager; cmd/mtatd serves it and cmd/mtatctl (via
// client.go) drives it.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"sync"
	"time"

	"github.com/tieredmem/mtat/internal/daemonkit"
	"github.com/tieredmem/mtat/internal/journal"
	"github.com/tieredmem/mtat/internal/loadgen"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/telemetry"
	"github.com/tieredmem/mtat/internal/tenant"
)

// State is a run's lifecycle phase: queued → running → done | failed |
// cancelled.
type State string

// Run lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Manager sizing defaults.
const (
	DefaultQueueCap = 64
	DefaultMaxRuns  = 256
	// DefaultRunTraceCapacity bounds each run's private trace ring, which
	// also backs the run's flight view. The telemetry default (1<<16
	// events) is sized for one process-wide sink; a service retaining
	// hundreds of runs wants a smaller ring.
	DefaultRunTraceCapacity = 1 << 12
	// DefaultCompactEvery is the number of journal delta records between
	// snapshot compactions when persistence is enabled.
	DefaultCompactEvery = 1024
)

// Config sizes the run manager.
type Config struct {
	// Workers is the worker pool size (<= 0 selects GOMAXPROCS).
	Workers int
	// QueueCap bounds the submission queue; submissions beyond it are
	// rejected with ErrQueueFull (<= 0 selects DefaultQueueCap).
	QueueCap int
	// MaxRuns caps retained finished runs; the oldest finished run (its
	// registry entry, result, and telemetry) is evicted beyond the cap
	// (<= 0 selects DefaultMaxRuns).
	MaxRuns int
	// RunTraceCapacity sizes each run's private trace ring, and with it
	// the run's flight view (<= 0 selects DefaultRunTraceCapacity).
	RunTraceCapacity int
	// DefaultEpisodes is the MTAT in-process training budget for specs
	// that omit episodes (<= 0 selects sim.DefaultPretrainEpisodes).
	DefaultEpisodes int
	// Telemetry is the daemon-level sink for the manager's own metrics
	// (submissions, completions, queue depth). Nil disables them.
	Telemetry *telemetry.Telemetry
	// Bus carries live run events (lifecycle, flight, stats deltas) to
	// SSE subscribers. Nil selects a default-sized bus; publishing is
	// free while nobody subscribes either way.
	Bus *telemetry.EventBus
	// StatsInterval is the mid-run stats sampling period for `run.stats`
	// events (<= 0 selects DefaultStatsInterval).
	StatsInterval time.Duration
	// DataDir enables crash-safe persistence: accepted specs, state
	// transitions, and result summaries are journaled there, and a
	// restarted manager replays the journal, re-enqueueing every run the
	// previous incarnation accepted but did not finish (at-least-once
	// execution — see DESIGN.md §10). Empty keeps all state in memory.
	DataDir string
	// CompactEvery is the number of journal delta records between
	// snapshot compactions (<= 0 selects DefaultCompactEvery).
	CompactEvery int
	// Fsync syncs the journal after every append; off, a process crash
	// loses nothing but an OS crash may drop the page-cache tail.
	Fsync bool
	// Tenants is the tenancy registry (auth, quotas, fair-share
	// classes, metering). Nil selects a permissive registry whose
	// anonymous tenant admits everything — daemons without -tenants
	// behave exactly as before.
	Tenants *tenant.Registry
	// Logf receives operational log lines (evictions, journal errors,
	// recovery summaries). Nil selects the standard library logger.
	Logf func(format string, args ...any)
}

// Submission errors.
var (
	// ErrQueueFull rejects a submission when the queue is at capacity —
	// the HTTP layer maps it to 429.
	ErrQueueFull = errors.New("server: submission queue full")
	// ErrShuttingDown rejects submissions after Shutdown began — mapped
	// to 503.
	ErrShuttingDown = errors.New("server: shutting down")
	// ErrNotFound reports an unknown run ID — mapped to 404.
	ErrNotFound = errors.New("server: run not found")
)

// run is the registry entry. All mutable fields are guarded by the
// manager's mutex; done is closed exactly once when the run reaches a
// terminal state.
type run struct {
	id        string
	spec      sim.RunSpec
	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	errMsg    string
	result    *sim.Result
	// summary is the journaled result of a run finished by a previous
	// incarnation — the full sim.Result and trace die with the process,
	// the summary survives it.
	summary *RunResult
	tel     *telemetry.Telemetry
	// sc is the submit-time span context (the API request's server span
	// when the submission arrived with a traceparent); the worker parents
	// the run.execute span under it so the whole run joins the caller's
	// trace. trace alone survives journal replay.
	sc     telemetry.SpanContext
	trace  telemetry.TraceID
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	// tn is the owning tenant; cost its admission-time cost estimate
	// (seconds), refunded from the tenant's pending budget on finish.
	tn   *tenant.Tenant
	cost float64
}

// Manager owns the submission queue, the worker pool, and the run
// registry. All methods are safe for concurrent use.
type Manager struct {
	cfg     Config
	logf    func(format string, args ...any)
	tenants *tenant.Registry
	bus     *telemetry.EventBus

	mu sync.Mutex
	// runs is the journaled run registry: IDs, submission and finish
	// order, result-store eviction, replay and compaction.
	runs      *daemonkit.Ledger[*run]
	closed    bool
	recovered int // runs re-enqueued by journal replay at startup

	// board holds each retained run's status as last published, so that
	// status reads (Get) never wait on mu, which Submit, runOne and
	// finishLocked hold across their journal appends: with fsync on, a
	// read behind mu waits for up to three disk flushes per run in
	// flight. It is written under mu as well, at every state change
	// (publishRunLocked), and pruned at eviction.
	boardMu sync.RWMutex
	board   map[string]RunStatus

	// queue replaces the historical FIFO channel with the weighted
	// LC-over-BE deficit-round-robin fair queue; it is unbounded, with
	// admission (QueueCap plus per-tenant quotas) enforced in Submit.
	queue *tenant.FairQueue[*run]
	wg    sync.WaitGroup

	mSubmitted, mRejected *telemetry.Counter
	mDone, mFailed        *telemetry.Counter
	mCancelled, mEvicted  *telemetry.Counter
	mFlightDropped        *telemetry.Counter
	mPolicyCacheHits      *telemetry.Counter
	mPolicyCacheMisses    *telemetry.Counter
	gQueued, gRunning     *telemetry.Gauge
	gRetained             *telemetry.Gauge
}

// NewManager builds a manager and starts its worker pool. With a
// Config.DataDir it first opens the journal there, replays it, and
// re-enqueues every run the previous incarnation accepted but did not
// finish; the error reports an unreadable data dir or a replay veto.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.MaxRuns <= 0 {
		cfg.MaxRuns = DefaultMaxRuns
	}
	if cfg.RunTraceCapacity <= 0 {
		cfg.RunTraceCapacity = DefaultRunTraceCapacity
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = DefaultCompactEvery
	}
	m := &Manager{
		cfg:     cfg,
		logf:    cfg.Logf,
		tenants: cfg.Tenants,
		queue:   tenant.NewFairQueue[*run](),
		bus:     cfg.Bus,
		board:   make(map[string]RunStatus),
	}
	if m.bus == nil {
		m.bus = telemetry.NewEventBus(telemetry.BusConfig{})
	}
	if m.logf == nil {
		m.logf = log.Printf
	}
	if m.tenants == nil {
		m.tenants = tenant.Permissive(cfg.Telemetry)
	}
	reg := cfg.Telemetry.Metrics()
	m.mSubmitted = reg.Counter("server_runs_submitted_total")
	m.mRejected = reg.Counter("server_runs_rejected_total")
	m.mDone = reg.Counter("server_runs_done_total")
	m.mFailed = reg.Counter("server_runs_failed_total")
	m.mCancelled = reg.Counter("server_runs_cancelled_total")
	m.mEvicted = reg.Counter("server_results_evicted_total")
	m.mFlightDropped = reg.Counter(telemetry.MetricFlightDropped)
	m.mPolicyCacheHits = reg.Counter(telemetry.MetricPolicyCacheHits)
	m.mPolicyCacheMisses = reg.Counter(telemetry.MetricPolicyCacheMisses)
	m.gQueued = reg.Gauge("server_queue_depth")
	m.gRunning = reg.Gauge("server_runs_running")
	m.gRetained = reg.Gauge("server_results_retained")
	m.runs = daemonkit.NewLedger(daemonkit.LedgerConfig[*run]{
		Component:    "server",
		Kind:         "run",
		Prefix:       "r",
		Max:          cfg.MaxRuns,
		CompactEvery: cfg.CompactEvery,
		Terminal:     func(r *run) bool { return r.state.Terminal() },
		Snapshot:     m.snapshot,
		Evicted:      m.evicted,
		Telemetry:    cfg.Telemetry,
		Logf:         m.logf,
	})

	var pending []*run
	if cfg.DataDir != "" {
		stats, err := m.runs.Open(cfg.DataDir,
			journal.Options{Fsync: cfg.Fsync, Telemetry: cfg.Telemetry}, m.replay)
		if err != nil {
			return nil, err
		}
		pending = m.restore()
		m.recovered = len(pending)
		m.runs.Each(func(r *run) { m.board[r.id] = r.status() })
		if stats.Records > 0 || stats.Torn {
			m.logf("server: journal replay: %d records, %d runs retained, %d re-enqueued, torn=%v",
				stats.Records, m.runs.Len(), len(pending), stats.Torn)
		}
	}
	// The fair queue is unbounded, so the recovered backlog re-enqueues
	// even beyond the admission cap (Submit still enforces cfg.QueueCap
	// for new work). Recovered runs re-charge their tenants' accounting
	// without re-running admission — they were admitted before the crash.
	for _, r := range pending {
		r.tn.Restore(1, r.cost, false)
		m.queue.Push(r.tn, r)
	}
	m.gQueued.Set(float64(m.queue.Len()))
	m.gRetained.Set(float64(m.runs.Retained()))
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m, nil
}

// newRunTelemetry builds one run's private telemetry sink.
func newRunTelemetry(cfg Config) *telemetry.Telemetry {
	return telemetry.NewWithConfig(telemetry.Config{TraceCapacity: cfg.RunTraceCapacity})
}

// newRunContext builds one run's cancellation context.
func newRunContext() (context.Context, context.CancelFunc) {
	return context.WithCancel(context.Background())
}

// Workers returns the worker pool size.
func (m *Manager) Workers() int { return m.cfg.Workers }

// Tenants returns the manager's tenancy registry (never nil).
func (m *Manager) Tenants() *tenant.Registry { return m.tenants }

// TenantsReloaded re-evaluates scheduling after a quota/config reload:
// runs gated under an old MaxActive limit may now be dispatchable.
func (m *Manager) TenantsReloaded() { m.queue.Notify() }

// Ready reports whether the node should receive traffic: construction
// already implies the journal replay finished, so readiness is "not
// draining and the admission queue below capacity". The reason string
// explains a false verdict — served verbatim by GET /readyz.
func (m *Manager) Ready() (bool, string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false, "draining: shutdown in progress"
	}
	if depth := m.queue.Len(); depth >= m.cfg.QueueCap {
		return false, fmt.Sprintf("queue saturated: %d/%d", depth, m.cfg.QueueCap)
	}
	return true, "ok"
}

// Stats snapshots the manager's load signal — the numbers a fleet
// scheduler weighs when placing work on this node. Served at
// GET /api/v1/status and mirrored by the server_queue_depth,
// server_runs_running, and server_results_retained gauges.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		Workers:         m.cfg.Workers,
		QueueDepth:      m.queue.Len(),
		QueueCap:        m.cfg.QueueCap,
		Tenants:         m.tenants.Count(),
		RetainedResults: m.runs.Retained(),
		MaxRuns:         m.cfg.MaxRuns,
		TotalRuns:       m.runs.Len(),
		RecoveredRuns:   m.recovered,
		Draining:        m.closed,
	}
	m.runs.Each(func(r *run) {
		switch r.state {
		case StateQueued:
			s.QueuedRuns++
		case StateRunning:
			s.ActiveRuns++
		}
	})
	return s
}

// Submit validates the spec and enqueues it, returning the queued run's
// status. It fails fast with ErrQueueFull when the queue is at capacity
// and ErrShuttingDown after Shutdown began.
func (m *Manager) Submit(spec sim.RunSpec) (RunStatus, error) {
	return m.SubmitCtx(context.Background(), spec)
}

// SubmitCtx is Submit under a caller context: when ctx carries a span
// context (the API middleware puts the request's server span there), the
// run joins that trace — the journal append and the eventual execution
// record child spans, and the run's status reports the trace ID. When
// ctx carries an authenticated tenant (the tenant middleware puts it
// there), the run is admitted against that tenant's quotas and owned by
// it; otherwise the anonymous tenant owns it (trusted in-process
// callers and permissive daemons).
func (m *Manager) SubmitCtx(ctx context.Context, spec sim.RunSpec) (RunStatus, error) {
	if err := spec.Validate(); err != nil {
		return RunStatus{}, err
	}
	sc := telemetry.SpanContextFrom(ctx)
	tn := tenant.FromContext(ctx)
	if tn == nil {
		tn = m.tenants.Anonymous()
	}
	// Estimate the run's wall cost (spec ticks over the observed
	// simulator tick rate) before taking the manager lock.
	cost := m.tenants.Cost().EstimateRunSeconds(specTicks(spec))
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		m.mRejected.Inc()
		return RunStatus{}, ErrShuttingDown
	}
	// Global admission first (cheap, tenant-agnostic), then the
	// tenant's own rate/quota/cost checks, which charge its accounting
	// atomically on success.
	if m.queue.Len() >= m.cfg.QueueCap {
		m.mRejected.Inc()
		return RunStatus{}, ErrQueueFull
	}
	if err := tn.Admit(tenant.AdmitRequest{Units: 1, CostSeconds: cost}); err != nil {
		m.mRejected.Inc()
		return RunStatus{}, err
	}
	runCtx, cancel := newRunContext()
	r := &run{
		id:        m.runs.NewID(),
		spec:      spec,
		state:     StateQueued,
		submitted: time.Now(),
		tel:       newRunTelemetry(m.cfg),
		sc:        sc,
		trace:     sc.Trace,
		ctx:       runCtx,
		cancel:    cancel,
		done:      make(chan struct{}),
		tn:        tn,
		cost:      cost,
	}
	// Journal before exposing the run: once Submit returns the ID, the
	// acceptance must survive a crash. A failed append rejects the
	// submission instead of silently degrading durability.
	if err := m.runs.Submit(ctx, r.id, r, recRunSubmitted, runSubmittedRec{
		ID: r.id, Spec: r.spec, SubmittedAt: r.submitted,
		Trace: daemonkit.TraceOrEmpty(r.trace), Tenant: tenant.NameOf(tn),
	}); err != nil {
		cancel()
		tn.NoteAbandoned(1, cost) // refund the admission charge
		m.mRejected.Inc()
		return RunStatus{}, err
	}
	r.tel.Tracer().SetSink(m.flightSink(r.id, tenant.NameOf(tn)))
	m.queue.Push(tn, r)
	m.mSubmitted.Inc()
	m.gQueued.Set(float64(m.queue.Len()))
	m.publishRunLocked(r)
	return r.status(), nil
}

// specTicks computes a spec's simulated tick count for cost estimation,
// applying the simulator defaults (0.1s tick; pattern-length duration,
// with the Figure 7 ramp as the nil-load fallback).
func specTicks(spec sim.RunSpec) float64 {
	tick := spec.TickSeconds
	if tick <= 0 {
		tick = 0.1
	}
	dur := spec.DurationSeconds
	if dur <= 0 {
		if p, err := spec.Load.Pattern(); err == nil && p != nil {
			dur = p.Duration()
		} else {
			dur = loadgen.Fig7().Duration()
		}
	}
	if dur <= 0 {
		return 0
	}
	return dur / tick
}

// Get returns a run's status snapshot: the status its last state change
// published, read without waiting for the manager lock.
func (m *Manager) Get(id string) (RunStatus, error) {
	m.boardMu.RLock()
	st, ok := m.board[id]
	m.boardMu.RUnlock()
	if !ok {
		return RunStatus{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return st, nil
}

// List returns every retained run in submission order.
func (m *Manager) List() []RunStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]RunStatus, 0, m.runs.Len())
	m.runs.Each(func(r *run) { out = append(out, r.status()) })
	return out
}

// Result returns a finished run's full simulation result (nil until the
// run is done).
func (m *Manager) Result(id string) (*sim.Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return r.result, nil
}

// Events returns a run's private trace for streaming. The tracer is safe
// for concurrent use, so callers may read it while the run is live.
func (m *Manager) Events(id string) (*telemetry.Tracer, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return r.tel.Tracer(), nil
}

// Cancel stops a run: a queued run is marked cancelled immediately (the
// worker will skip it), a running run's context is cancelled and the
// worker marks it once the tick loop observes the cancellation. Terminal
// runs are left untouched. The returned status reflects the
// post-cancellation view.
func (m *Manager) Cancel(id string) (RunStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs.Get(id)
	if !ok {
		return RunStatus{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	switch r.state {
	case StateQueued:
		r.cancel()
		m.finishLocked(r, StateCancelled, "cancelled while queued", nil)
	case StateRunning:
		r.cancel()
	}
	return r.status(), nil
}

// WaitRun blocks until the run reaches a terminal state or ctx is done,
// then returns the final status.
func (m *Manager) WaitRun(ctx context.Context, id string) (RunStatus, error) {
	m.mu.Lock()
	r, ok := m.runs.Get(id)
	m.mu.Unlock()
	if !ok {
		return RunStatus{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	select {
	case <-r.done:
		m.mu.Lock()
		defer m.mu.Unlock()
		return r.status(), nil
	case <-ctx.Done():
		return RunStatus{}, ctx.Err()
	}
}

// Shutdown drains the service: it stops accepting submissions, lets
// queued and running work finish, and returns once every worker has
// exited. If ctx expires first, every outstanding run is cancelled, the
// workers are still waited for (cancellation stops runs between ticks),
// and ctx's error is returned.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		m.queue.Close()
	}
	m.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		m.mu.Lock()
		m.runs.Each(func(r *run) {
			if !r.state.Terminal() {
				r.cancel()
			}
		})
		m.mu.Unlock()
		<-drained
		err = ctx.Err()
	}
	m.mu.Lock()
	m.runs.Close()
	m.mu.Unlock()
	return err
}

// worker drains the fair queue until it is closed and empty.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		r, ok := m.queue.Pop()
		if !ok {
			return
		}
		m.runOne(r)
	}
}

// runOne executes a single queued run through its lifecycle.
func (m *Manager) runOne(r *run) {
	m.mu.Lock()
	if r.state != StateQueued { // cancelled while queued
		m.gQueued.Set(float64(m.queue.Len()))
		m.mu.Unlock()
		return
	}
	r.state = StateRunning
	r.started = time.Now()
	r.tn.NoteStarted(1)
	r.tn.ObserveQueueWait(r.started.Sub(r.submitted).Seconds())
	m.runs.Journal(recRunStarted, runStartedRec{ID: r.id, StartedAt: r.started})
	m.gQueued.Set(float64(m.queue.Len()))
	m.gRunning.Set(m.gRunning.Value() + 1)
	m.publishRunLocked(r)
	m.mu.Unlock()

	// Stream periodic stats deltas for watchers while the run executes.
	statsStop := make(chan struct{})
	go m.sampleRunStats(r, statsStop)
	defer close(statsStop)

	// When the submission carried a span context, the execution becomes a
	// child span in the submitter's trace: mtatctl submit → fleet dispatch
	// → node submit → run.execute read as one tree.
	ctx := r.ctx
	var span *telemetry.ActiveSpan
	if r.sc.Valid() {
		ctx, span = m.cfg.Telemetry.Spans().StartSpan(
			telemetry.ContextWithSpanContext(ctx, r.sc), "run.execute",
			telemetry.SA("run", r.id), telemetry.SA("policy", r.spec.PolicyName()))
	}
	res, err := execute(ctx, r.spec, r.tel, m.cfg.DefaultEpisodes)
	span.End(err)
	// Each run records into a private sink; re-publish its core
	// accounting on the daemon sink so /metrics carries cross-run
	// sim_* aggregates, and feed the admission cost model with the
	// observed tick rate.
	if err == nil && res != nil {
		res.Core.Publish(m.cfg.Telemetry)
		if res.Core != nil {
			m.tenants.Cost().ObserveTickRate(res.Core.TicksPerSecond)
			m.tenants.Cost().ObserveCellSeconds(res.Core.WallSeconds)
		}
	}

	m.mu.Lock()
	m.gRunning.Set(m.gRunning.Value() - 1)
	switch {
	case err == nil:
		m.finishLocked(r, StateDone, "", res)
	case errors.Is(err, context.Canceled):
		m.finishLocked(r, StateCancelled, "cancelled", nil)
	default:
		m.finishLocked(r, StateFailed, err.Error(), nil)
	}
	m.mu.Unlock()
}

// finishLocked moves a run to a terminal state; the ledger journals it
// and evicts the oldest finished runs beyond the result-store cap.
// Callers hold m.mu.
func (m *Manager) finishLocked(r *run, st State, msg string, res *sim.Result) {
	// Retire the run from its tenant's accounting: a run that was
	// dispatched releases an active slot, one cancelled while queued
	// releases its queue slot; both refund the admission cost estimate.
	// The queue is notified so runs gated on MaxActive re-evaluate.
	switch r.state {
	case StateRunning:
		r.tn.NoteDone(1, r.cost)
	case StateQueued:
		r.tn.NoteAbandoned(1, r.cost)
	}
	m.queue.Notify()
	r.state = st
	r.errMsg = msg
	r.result = res
	r.finished = time.Now()
	r.cancel() // release the context's resources in every path
	close(r.done)
	switch st {
	case StateDone:
		m.mDone.Inc()
	case StateFailed:
		m.mFailed.Inc()
	case StateCancelled:
		m.mCancelled.Inc()
	}
	m.runs.Finish(r.id, recRunFinished, runFinishedRec{
		ID: r.id, State: st, Error: msg, FinishedAt: r.finished,
		Result: summarizeOrNil(res), Tenant: tenant.NameOf(r.tn),
	})
	m.gRetained.Set(float64(m.runs.Retained()))
	m.mFlightDropped.Add(int64(r.tel.Tracer().Dropped()))
	m.publishRunLocked(r)
	m.SyncBusMetrics()
	m.syncPolicyCacheMetrics()
}

// syncPolicyCacheMetrics mirrors sim's process-wide trained-policy cache
// accounting into the daemon registry. Called at run finish: a run builds
// its policy, the only step that touches the cache, before it finishes.
func (m *Manager) syncPolicyCacheMetrics() {
	hits, misses := sim.PolicyCacheStats()
	m.mPolicyCacheHits.RaiseTo(hits)
	m.mPolicyCacheMisses.RaiseTo(misses)
}

// summarizeOrNil is summarize tolerating the nil result of a failed or
// cancelled run.
func summarizeOrNil(res *sim.Result) *RunResult {
	if res == nil {
		return nil
	}
	return summarize(res)
}

// execute materializes and runs one spec: scenario build, policy
// construction (including in-process MTAT pre-training, cancellable via
// ctx), then the tick loop under the run's private telemetry sink.
func execute(ctx context.Context, spec sim.RunSpec, tel *telemetry.Telemetry, defaultEpisodes int) (*sim.Result, error) {
	scn, err := spec.Scenario()
	if err != nil {
		return nil, err
	}
	episodes := spec.Episodes
	if episodes <= 0 {
		episodes = defaultEpisodes
	}
	pol, err := sim.NewPolicy(ctx, spec.PolicyName(), scn, episodes)
	if err != nil {
		return nil, err
	}
	scn.Telemetry = tel
	return sim.RunScenarioContext(ctx, scn, pol)
}
