package cluster

import (
	"context"
	"time"

	"github.com/tieredmem/mtat/internal/daemonkit"
	"github.com/tieredmem/mtat/internal/journal"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/telemetry"
	"github.com/tieredmem/mtat/internal/tenant"
)

// Crash-safe persistence, mtatfleet's half (DESIGN.md §10): the journal
// record structs, how each record folds into a sweep, the snapshot
// shape, and what an eviction accounts. Everything else — IDs,
// retention, replay bookkeeping, compaction order — is the sweep
// ledger's, a daemonkit.Ledger shared with mtatd.

// Journal record types written by the fleet. Deltas follow the sweep
// lifecycle; the sweep ledger (daemonkit.Ledger) writes the snapshot
// record that compaction leaves, so replay is snapshot + deltas since.
const (
	recSweepSubmitted = "sweep.submitted"
	recCellSettled    = "cell.settled"
	recSweepFinished  = "sweep.finished"
)

// sweepSubmittedRec journals an accepted sweep — the durable promise
// that every cell will be dispatched (at least once) even across a
// daemon crash. Cells are not journaled here: they recompile
// deterministically from the spec on replay.
type sweepSubmittedRec struct {
	ID          string        `json:"id"`
	Name        string        `json:"name"`
	Spec        sim.SweepSpec `json:"spec"`
	SubmittedAt time.Time     `json:"submitted_at"`
	// Trace preserves the submission's distributed trace ID across a
	// crash (absent in pre-tracing journals).
	Trace string `json:"trace,omitempty"`
	// Tenant preserves sweep ownership across a crash so a restarted
	// fleet re-charges the right tenant's quotas. Empty — including
	// every record in a pre-tenant journal — means anonymous.
	Tenant string `json:"tenant,omitempty"`
}

// cellSettledRec journals one cell reaching a terminal state. A
// restarted fleet re-dispatches only cells with no settled record.
type cellSettledRec struct {
	SweepID string      `json:"sweep_id"`
	Index   int         `json:"index"`
	Summary CellSummary `json:"summary"`
}

// sweepFinishedRec journals a sweep's terminal transition.
type sweepFinishedRec struct {
	ID         string     `json:"id"`
	State      SweepState `json:"state"`
	FinishedAt time.Time  `json:"finished_at"`
}

// sweepSnapshot is one sweep inside a compaction record: the spec plus
// every settled cell summary.
type sweepSnapshot struct {
	ID          string        `json:"id"`
	Name        string        `json:"name"`
	Spec        sim.SweepSpec `json:"spec"`
	State       SweepState    `json:"state"`
	SubmittedAt time.Time     `json:"submitted_at"`
	FinishedAt  *time.Time    `json:"finished_at,omitempty"`
	Cells       []CellSummary `json:"cells,omitempty"`
	Trace       string        `json:"trace,omitempty"`
	Tenant      string        `json:"tenant,omitempty"`
}

// fleetSnapshot is the compaction record: the full sweep registry at
// one instant. Sweeps are in submission order; Finished lists sweep IDs
// in finish order (the eviction order).
type fleetSnapshot struct {
	NextID   int             `json:"next_id"`
	Sweeps   []sweepSnapshot `json:"sweeps"`
	Finished []string        `json:"finished"`
}

// replay folds one journal record into the sweep ledger. Unknown
// record types are skipped (forward compatibility); malformed payloads
// abort the replay.
func (f *Fleet) replay(rec journal.Record) error {
	switch rec.Type {
	case daemonkit.SnapshotType:
		var snap fleetSnapshot
		if err := rec.Decode(&snap); err != nil {
			return err
		}
		f.sweeps.Reset(snap.NextID, snap.Finished)
		for _, ss := range snap.Sweeps {
			f.replayed(ss)
		}
	case recSweepSubmitted:
		var r sweepSubmittedRec
		if err := rec.Decode(&r); err != nil {
			return err
		}
		f.replayed(sweepSnapshot{
			ID: r.ID, Name: r.Name, Spec: r.Spec, State: SweepRunning,
			SubmittedAt: r.SubmittedAt, Trace: r.Trace, Tenant: r.Tenant,
		})
	case recCellSettled:
		var r cellSettledRec
		if err := rec.Decode(&r); err != nil {
			return err
		}
		if sw, ok := f.sweeps.Get(r.SweepID); ok {
			sw.settle(r.Summary)
		}
	case recSweepFinished:
		var r sweepFinishedRec
		if err := rec.Decode(&r); err != nil {
			return err
		}
		if sw, ok := f.sweeps.Get(r.ID); ok && !sw.state.Terminal() {
			sw.state, sw.finished = r.State, r.FinishedAt
			f.sweeps.NoteFinished(r.ID)
		}
	}
	return nil
}

// replayed rebuilds a sweep from its journaled image into the ledger:
// cells recompile deterministically from the spec, and settled cells
// keep their journaled summaries. restore arms it once replay is over.
func (f *Fleet) replayed(ss sweepSnapshot) {
	cells, err := ss.Spec.Cells()
	if err != nil {
		// The spec was valid when journaled; refusing to start is safer
		// than guessing at a grid that no longer compiles.
		f.logf("cluster: journal replay: sweep %s spec no longer compiles: %v (dropped)", ss.ID, err)
		f.sweeps.NoteID(ss.ID)
		return
	}
	sw := &sweep{
		id:        ss.ID,
		name:      ss.Name,
		spec:      ss.Spec,
		state:     ss.State,
		submitted: ss.SubmittedAt,
		// Attribution tolerates tenants that left the config since the
		// record was written (and maps "" — every pre-tenant journal —
		// to the anonymous tenant), so replay of old WALs always works.
		tn:       f.tenants.Attribution(ss.Tenant),
		cellCost: f.tenants.Cost().EstimateCellSeconds(),
	}
	if ss.FinishedAt != nil {
		sw.finished = *ss.FinishedAt
	}
	if ss.Trace != "" {
		// The trace ID survives the crash for status linkage; the
		// submit-time span does not, so resumed dispatch records no
		// further spans under it.
		if tid, err := telemetry.ParseTraceID(ss.Trace); err == nil {
			sw.trace = tid
		}
	}
	for _, c := range cells {
		sw.cells = append(sw.cells, &cellRun{cell: c, state: CellPending})
	}
	for _, cs := range ss.Cells {
		sw.settle(cs)
	}
	f.sweeps.Add(sw.id, sw)
}

// settle installs a journaled cell summary on its cell. A later summary
// for the same cell replaces an earlier one.
func (sw *sweep) settle(s CellSummary) {
	if s.Index < 0 || s.Index >= len(sw.cells) {
		return
	}
	cr := sw.cells[s.Index]
	cr.state, cr.node, cr.attempts, cr.errMsg = s.State, s.Node, s.Attempts, s.Error
	cr.summary = &s
}

// restore arms the replayed sweeps and returns those that must be
// resumed: everything accepted but not finished by the previous
// incarnation. Their settled cells keep their journaled summaries; only
// the rest re-dispatch. Callers pass the returned sweeps to Resume()
// after registering nodes.
func (f *Fleet) restore() []*sweep {
	var resumable []*sweep
	f.sweeps.Each(func(sw *sweep) {
		sw.ctx, sw.cancel = context.WithCancel(context.Background())
		sw.done = make(chan struct{})
		if sw.state.Terminal() {
			sw.cancel()
			close(sw.done)
			return
		}
		unsettled := 0
		for _, cr := range sw.cells {
			if cr.summary == nil {
				unsettled++
			}
		}
		f.recoveredCells += unsettled
		// Re-charge the owning tenant for the cells still to run,
		// bypassing quotas — they were admitted by the previous
		// incarnation.
		sw.tn.Restore(unsettled, sw.cellCost*float64(unsettled), true)
		resumable = append(resumable, sw)
	})
	f.recoveredSweeps = len(resumable)
	return resumable
}

// snapshot is the ledger's compaction record builder.
func (f *Fleet) snapshot(nextID int, finished []string) any {
	snap := fleetSnapshot{NextID: nextID, Finished: finished}
	f.sweeps.Each(func(sw *sweep) {
		ss := sweepSnapshot{
			ID: sw.id, Name: sw.name, Spec: sw.spec, State: sw.state,
			SubmittedAt: sw.submitted, Trace: daemonkit.TraceOrEmpty(sw.trace),
			Tenant: tenant.NameOf(sw.tn),
		}
		if !sw.finished.IsZero() {
			t := sw.finished
			ss.FinishedAt = &t
		}
		for _, cr := range sw.cells {
			if cr.summary != nil {
				ss.Cells = append(ss.Cells, *cr.summary)
			}
		}
		snap.Sweeps = append(snap.Sweeps, ss)
	})
	return snap
}

// evicted accounts one sweep dropped past MaxSweeps, the way mtatd
// accounts evicted runs: fleet_sweeps_evicted_total and a log line.
func (f *Fleet) evicted(id string) {
	f.bus.DropTopic(sweepTopic(id))
	f.mSweepsEvicted.Inc()
	f.logf("cluster: sweep store full (max %d): evicted oldest finished sweep %s", f.cfg.MaxSweeps, id)
}
