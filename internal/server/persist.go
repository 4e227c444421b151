package server

import (
	"time"

	"github.com/tieredmem/mtat/internal/daemonkit"
	"github.com/tieredmem/mtat/internal/journal"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/telemetry"
	"github.com/tieredmem/mtat/internal/tenant"
)

// Crash-safe persistence, mtatd's half (DESIGN.md §10): the journal
// record structs, how each record folds into a run, the snapshot shape,
// and what an eviction accounts. Everything else — IDs, retention,
// replay bookkeeping, compaction order — is the run ledger's, a
// daemonkit.Ledger shared with mtatfleet.

// Journal record types written by the manager. Deltas follow the run
// lifecycle; the run ledger (daemonkit.Ledger) writes the snapshot
// record that compaction leaves, so replay is snapshot + deltas since.
const (
	recRunSubmitted = "run.submitted"
	recRunStarted   = "run.started"
	recRunFinished  = "run.finished"
)

// runSubmittedRec journals an accepted submission — the durable promise
// that the run will execute (at least once) even across a daemon crash.
type runSubmittedRec struct {
	ID          string      `json:"id"`
	Spec        sim.RunSpec `json:"spec"`
	SubmittedAt time.Time   `json:"submitted_at"`
	// Trace preserves the submission's distributed trace ID across a
	// crash (absent in pre-tracing journals).
	Trace string `json:"trace,omitempty"`
	// Tenant preserves run ownership across a crash so a restarted
	// daemon re-charges the right tenant's quotas. Empty — including
	// every record in a pre-tenant journal — means anonymous.
	Tenant string `json:"tenant,omitempty"`
}

// runStartedRec journals a queued→running transition.
type runStartedRec struct {
	ID        string    `json:"id"`
	StartedAt time.Time `json:"started_at"`
}

// runFinishedRec journals a terminal transition with the run's result
// summary — what a restarted daemon serves for the run thereafter (the
// full time series and trace die with the process).
type runFinishedRec struct {
	ID         string     `json:"id"`
	State      State      `json:"state"`
	Error      string     `json:"error,omitempty"`
	FinishedAt time.Time  `json:"finished_at"`
	Result     *RunResult `json:"result,omitempty"`
	Tenant     string     `json:"tenant,omitempty"`
}

// managerSnapshot is the compaction record: the full registry at one
// instant. Runs are in submission order; Finished lists run IDs in
// finish order (the eviction order).
type managerSnapshot struct {
	NextID   int         `json:"next_id"`
	Runs     []RunStatus `json:"runs"`
	Finished []string    `json:"finished"`
}

// replay folds one journal record into the run ledger. Unknown record
// types are skipped (forward compatibility: an old daemon replaying a
// newer log must not crash); malformed payloads abort the replay.
func (m *Manager) replay(rec journal.Record) error {
	switch rec.Type {
	case daemonkit.SnapshotType:
		var snap managerSnapshot
		if err := rec.Decode(&snap); err != nil {
			return err
		}
		m.runs.Reset(snap.NextID, snap.Finished)
		for _, st := range snap.Runs {
			m.runs.Add(st.ID, m.replayed(st))
		}
	case recRunSubmitted:
		var r runSubmittedRec
		if err := rec.Decode(&r); err != nil {
			return err
		}
		m.runs.Add(r.ID, m.replayed(RunStatus{
			ID: r.ID, State: StateQueued, Spec: r.Spec, SubmittedAt: r.SubmittedAt,
			Trace: r.Trace, Tenant: r.Tenant,
		}))
	case recRunStarted:
		var r runStartedRec
		if err := rec.Decode(&r); err != nil {
			return err
		}
		if run, ok := m.runs.Get(r.ID); ok && !run.state.Terminal() {
			run.started = r.StartedAt
		}
	case recRunFinished:
		var r runFinishedRec
		if err := rec.Decode(&r); err != nil {
			return err
		}
		run, ok := m.runs.Get(r.ID)
		if !ok {
			return nil // finished record without a submission; drop
		}
		run.state, run.errMsg, run.finished, run.summary = r.State, r.Error, r.FinishedAt, r.Result
		m.runs.NoteFinished(r.ID)
	}
	return nil
}

// replayed rebuilds a run from its journaled status. restore arms it
// once replay is over.
func (m *Manager) replayed(st RunStatus) *run {
	r := &run{
		id:        st.ID,
		spec:      st.Spec,
		state:     st.State,
		submitted: st.SubmittedAt,
		errMsg:    st.Error,
		summary:   st.Result,
		// Attribution tolerates tenants that left the config since the
		// record was written (and maps "" — every pre-tenant journal — to
		// the anonymous tenant), so replay of old WALs is always possible.
		tn:   m.tenants.Attribution(st.Tenant),
		cost: m.tenants.Cost().EstimateRunSeconds(specTicks(st.Spec)),
	}
	if st.Trace != "" {
		// The trace ID survives the crash for status linkage; the
		// submit-time span does not, so a re-executed run records no
		// further spans under it.
		if id, err := telemetry.ParseTraceID(st.Trace); err == nil {
			r.trace = id
		}
	}
	if st.StartedAt != nil {
		r.started = *st.StartedAt
	}
	if st.FinishedAt != nil {
		r.finished = *st.FinishedAt
	}
	return r
}

// restore arms the replayed runs (called before the workers start) and
// returns those that must be re-enqueued: everything the previous
// incarnation accepted but did not finish. Queued and running runs alike
// restart from scratch — the at-least-once contract after a crash.
func (m *Manager) restore() []*run {
	var pending []*run
	m.runs.Each(func(r *run) {
		r.done = make(chan struct{})
		if r.state.Terminal() {
			r.cancel = func() {}
			close(r.done)
			return
		}
		r.state, r.started = StateQueued, time.Time{}
		r.tel = newRunTelemetry(m.cfg)
		r.tel.Tracer().SetSink(m.flightSink(r.id, tenant.NameOf(r.tn)))
		r.ctx, r.cancel = newRunContext()
		pending = append(pending, r)
	})
	return pending
}

// snapshot is the ledger's compaction record builder.
func (m *Manager) snapshot(nextID int, finished []string) any {
	snap := managerSnapshot{NextID: nextID, Finished: finished}
	m.runs.Each(func(r *run) { snap.Runs = append(snap.Runs, r.status()) })
	return snap
}

// evicted accounts one run dropped past MaxRuns: the
// server_results_evicted_total counter and a log line record what
// vanished, so recovery tests can reconcile retained+evicted against
// submissions.
func (m *Manager) evicted(id string) {
	m.boardMu.Lock()
	delete(m.board, id)
	m.boardMu.Unlock()
	m.bus.DropTopic(runTopic(id))
	m.mEvicted.Inc()
	m.logf("server: result store full (max %d): evicted oldest finished run %s", m.cfg.MaxRuns, id)
}
