package server

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/tieredmem/mtat/internal/journal"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/telemetry"
	"github.com/tieredmem/mtat/internal/tenant"
)

// Journal record types written by the manager. Deltas follow the run
// lifecycle; a snapshot record (written by compaction) resets the whole
// registry, so replay is snapshot + deltas since.
const (
	recRunSubmitted = "run.submitted"
	recRunStarted   = "run.started"
	recRunFinished  = "run.finished"
	recSnapshot     = "snapshot"
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

// replayState accumulates journal records into the registry image the
// manager boots from.
type replayState struct {
	runs     map[string]*RunStatus
	order    []string
	finished []string
	nextID   int
}

func newReplayState() *replayState {
	return &replayState{runs: make(map[string]*RunStatus)}
}

// apply folds one journal record into the state. Unknown record types
// are skipped (forward compatibility: an old daemon replaying a newer
// log must not crash); malformed payloads abort the replay.
func (rs *replayState) apply(rec journal.Record) error {
	switch rec.Type {
	case recSnapshot:
		var snap managerSnapshot
		if err := rec.Decode(&snap); err != nil {
			return err
		}
		rs.runs = make(map[string]*RunStatus, len(snap.Runs))
		rs.order = rs.order[:0]
		for i := range snap.Runs {
			st := snap.Runs[i]
			rs.runs[st.ID] = &st
			rs.order = append(rs.order, st.ID)
			rs.noteID(st.ID)
		}
		rs.finished = append(rs.finished[:0], snap.Finished...)
		if snap.NextID > rs.nextID {
			rs.nextID = snap.NextID
		}
	case recRunSubmitted:
		var r runSubmittedRec
		if err := rec.Decode(&r); err != nil {
			return err
		}
		if _, ok := rs.runs[r.ID]; ok {
			return nil // duplicate submission record; first wins
		}
		rs.runs[r.ID] = &RunStatus{
			ID: r.ID, State: StateQueued, Spec: r.Spec, SubmittedAt: r.SubmittedAt,
			Trace: r.Trace, Tenant: r.Tenant,
		}
		rs.order = append(rs.order, r.ID)
		rs.noteID(r.ID)
	case recRunStarted:
		var r runStartedRec
		if err := rec.Decode(&r); err != nil {
			return err
		}
		if st, ok := rs.runs[r.ID]; ok && !st.State.Terminal() {
			t := r.StartedAt
			st.State, st.StartedAt = StateRunning, &t
		}
	case recRunFinished:
		var r runFinishedRec
		if err := rec.Decode(&r); err != nil {
			return err
		}
		st, ok := rs.runs[r.ID]
		if !ok {
			return nil // finished record without a submission; drop
		}
		t := r.FinishedAt
		st.State, st.Error, st.FinishedAt, st.Result = r.State, r.Error, &t, r.Result
		for _, id := range rs.finished {
			if id == r.ID {
				return nil
			}
		}
		rs.finished = append(rs.finished, r.ID)
	}
	return nil
}

// noteID keeps nextID above every replayed run ID so recovered and new
// runs never collide.
func (rs *replayState) noteID(id string) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "r"))
	if err == nil && n > rs.nextID {
		rs.nextID = n
	}
}

// restore installs the replayed image into a freshly built manager
// (called before its workers start) and returns the runs that must be
// re-enqueued: everything the previous incarnation accepted but did not
// finish. Queued and running runs alike restart from scratch — the
// at-least-once contract after a crash.
func (m *Manager) restore(rs *replayState) []*run {
	var pending []*run
	for _, id := range rs.order {
		st := rs.runs[id]
		r := &run{
			id:        st.ID,
			spec:      st.Spec,
			submitted: st.SubmittedAt,
			// Attribution tolerates tenants that left the config since
			// the record was written (and maps "" — every pre-tenant
			// journal — to the anonymous tenant), so replay of old WALs
			// is always possible.
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
		if st.State.Terminal() {
			r.state = st.State
			r.errMsg = st.Error
			r.summary = st.Result
			if st.StartedAt != nil {
				r.started = *st.StartedAt
			}
			if st.FinishedAt != nil {
				r.finished = *st.FinishedAt
			}
			r.cancel = func() {}
			r.done = make(chan struct{})
			close(r.done)
		} else {
			r.state = StateQueued
			r.tel = newRunTelemetry(m.cfg)
			r.tel.Tracer().SetSink(m.flightSink(r.id, tenant.NameOf(r.tn)))
			r.ctx, r.cancel = newRunContext()
			r.done = make(chan struct{})
			pending = append(pending, r)
		}
		m.runs[r.id] = r
		m.order = append(m.order, r.id)
	}
	// Rebuild the finish-order list from IDs that still resolve, then
	// re-apply the retention cap (it may have shrunk across the restart).
	for _, id := range rs.finished {
		if r, ok := m.runs[id]; ok && r.state.Terminal() {
			m.finished = append(m.finished, id)
		}
	}
	m.nextID = rs.nextID
	m.evictLocked()
	return pending
}

// snapshotLocked captures the registry for a compaction record. Callers
// hold m.mu.
func (m *Manager) snapshotLocked() managerSnapshot {
	snap := managerSnapshot{
		NextID:   m.nextID,
		Finished: append([]string(nil), m.finished...),
	}
	for _, id := range m.order {
		if r, ok := m.runs[id]; ok {
			snap.Runs = append(snap.Runs, r.status())
		}
	}
	return snap
}

// maybeCompactLocked snapshots the registry once enough delta records
// have accumulated since the last compaction. Callers hold m.mu.
func (m *Manager) maybeCompactLocked() {
	if m.jn == nil || m.jn.Records() < int64(m.cfg.CompactEvery) {
		return
	}
	if err := m.jn.Compact(recSnapshot, m.snapshotLocked()); err != nil {
		m.logf("server: journal compaction failed: %v", err)
	}
}

// journalLocked appends a delta record, downgrading failures to a log
// line — an unjournaled transition costs at-least-once re-execution
// after a crash, not correctness. Callers hold m.mu.
func (m *Manager) journalLocked(typ string, v any) {
	if m.jn == nil {
		return
	}
	if err := m.jn.Append(typ, v); err != nil {
		m.logf("server: journal append %s failed: %v", typ, err)
	}
}

func dataDirError(err error) error {
	return fmt.Errorf("server: open data dir: %w", err)
}
