package hypothesis

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"github.com/tieredmem/mtat/internal/backoff"
	"github.com/tieredmem/mtat/internal/cluster"
	"github.com/tieredmem/mtat/internal/daemonkit"
	"github.com/tieredmem/mtat/internal/journal"
	"github.com/tieredmem/mtat/internal/server"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// Backend abstracts where the experiment's runs execute: a remote mtatd
// (NodeBackend), or an in-process manager (LocalBackend) when no daemon
// is up.
type Backend interface {
	// Submit enqueues one compiled run and returns its accepted status.
	Submit(ctx context.Context, spec sim.RunSpec) (server.RunStatus, error)
	// Wait blocks until the run settles. Implementations that talk to a
	// restartable daemon should survive its restarts.
	Wait(ctx context.Context, id string) (server.RunStatus, error)
}

// NodeBackend runs experiment cells on one mtatd over HTTP, riding out
// daemon restarts: submissions retry through backpressure and outages,
// and waits use WaitDurable. Combined with mtatd's own run journal
// (-data-dir), a SIGKILL mid-experiment costs nothing but wall time.
type NodeBackend struct {
	Client *server.Client
	// Poll caps the status-poll interval (0 selects the client default).
	Poll time.Duration
	// MaxOutage bounds consecutive unreachability before giving up
	// (0 selects server.DefaultMaxOutage).
	MaxOutage time.Duration
}

// submitRetry paces NodeBackend.Submit's retries: 100ms doubling to
// 1.6s, jittered so experiments sharing a daemon do not retry in step.
var submitRetry = backoff.Policy{Base: 100 * time.Millisecond, Max: 1600 * time.Millisecond}

// Submit enqueues the run, retrying transport errors and backpressure
// (429/503) for up to MaxOutage.
func (b *NodeBackend) Submit(ctx context.Context, spec sim.RunSpec) (server.RunStatus, error) {
	maxOutage := b.MaxOutage
	if maxOutage <= 0 {
		maxOutage = server.DefaultMaxOutage
	}
	start := time.Now()
	for attempt := 0; ; attempt++ {
		st, err := b.Client.Submit(ctx, spec)
		if err == nil {
			return st, nil
		}
		if ctx.Err() != nil {
			return server.RunStatus{}, ctx.Err()
		}
		var apiErr *daemonkit.APIError
		if errors.As(err, &apiErr) &&
			apiErr.StatusCode != http.StatusTooManyRequests &&
			apiErr.StatusCode != http.StatusServiceUnavailable {
			return server.RunStatus{}, err
		}
		if time.Since(start) > maxOutage {
			return server.RunStatus{}, fmt.Errorf("hypothesis: submit unreachable for %s: %w", maxOutage, err)
		}
		if err := submitRetry.Sleep(ctx, attempt); err != nil {
			return server.RunStatus{}, err
		}
	}
}

// Wait delegates to WaitDurable so a daemon bounce does not fail the
// experiment.
func (b *NodeBackend) Wait(ctx context.Context, id string) (server.RunStatus, error) {
	return b.Client.WaitDurable(ctx, id, b.Poll, b.MaxOutage)
}

// LocalBackend runs experiment cells on an in-process manager — the
// zero-setup path for `mtatctl experiment run` with no daemon address.
type LocalBackend struct {
	Manager *server.Manager
}

// Submit enqueues on the in-process manager.
func (b *LocalBackend) Submit(ctx context.Context, spec sim.RunSpec) (server.RunStatus, error) {
	return b.Manager.SubmitCtx(ctx, spec)
}

// Wait blocks on the in-process manager.
func (b *LocalBackend) Wait(ctx context.Context, id string) (server.RunStatus, error) {
	return b.Manager.WaitRun(ctx, id)
}

// Journal record types. The experiment journal is the harness's own
// durability: which cells were submitted (and under which run IDs),
// which settled (and with what measurement), and whether the experiment
// concluded. Replay turns a killed `mtatctl experiment run` into a
// resumable one.
const (
	recStarted   = "exp.started"
	recSubmitted = "exp.submitted"
	recSettled   = "exp.settled"
	recSweep     = "exp.sweep"
	recFinished  = "exp.finished"
)

type startedRec struct {
	Spec  json.RawMessage `json:"spec"`
	Trace string          `json:"trace,omitempty"`
}

type submittedRec struct {
	Config string `json:"config"`
	Seed   int64  `json:"seed"`
	RunID  string `json:"run_id"`
}

type sweepRec struct {
	SweepID string `json:"sweep_id"`
}

type finishedRec struct {
	Verdict Verdict `json:"verdict"`
}

// expState is the journal's replayed view of one experiment.
type expState struct {
	specJSON  json.RawMessage
	trace     string
	submitted map[string]string // cell key -> run ID
	settled   map[string]Measurement
	sweepID   string
	verdict   Verdict
	finished  bool
}

func replayState(rec journal.Record, st *expState) error {
	switch rec.Type {
	case recStarted:
		var r startedRec
		if err := rec.Decode(&r); err != nil {
			return err
		}
		st.specJSON, st.trace = r.Spec, r.Trace
	case recSubmitted:
		var r submittedRec
		if err := rec.Decode(&r); err != nil {
			return err
		}
		st.submitted[r.Config+"/"+strconv.FormatInt(r.Seed, 10)] = r.RunID
	case recSettled:
		var m Measurement
		if err := rec.Decode(&m); err != nil {
			return err
		}
		st.settled[m.Config+"/"+strconv.FormatInt(m.Seed, 10)] = m
	case recSweep:
		var r sweepRec
		if err := rec.Decode(&r); err != nil {
			return err
		}
		st.sweepID = r.SweepID
	case recFinished:
		var r finishedRec
		if err := rec.Decode(&r); err != nil {
			return err
		}
		st.verdict, st.finished = r.Verdict, true
	}
	return nil
}

// openState opens (or creates) the experiment's journal under dataDir
// and replays it.
func openState(dataDir, name string) (*journal.Journal, *expState, error) {
	st := &expState{
		submitted: make(map[string]string),
		settled:   make(map[string]Measurement),
	}
	dir := filepath.Join(dataDir, "experiments", name)
	j, _, err := journal.Open(dir, journal.Options{}, func(rec journal.Record) error {
		return replayState(rec, st)
	})
	if err != nil {
		return nil, nil, err
	}
	return j, st, nil
}

// Runner executes one experiment end to end: compile, run every cell,
// analyze, and (when DataDir is set) journal each step so a killed run
// resumes instead of restarting.
type Runner struct {
	// Backend executes cells one run at a time. Required unless Fleet is
	// set.
	Backend Backend
	// Fleet, when set, compiles the experiment to a sweep and runs it on
	// mtatfleet instead of Backend (the experiment must vary exactly one
	// sweepable axis — see ExperimentSpec.SweepSpec).
	Fleet *cluster.Client
	// DataDir roots the experiment journals; empty disables persistence
	// (a killed run starts over).
	DataDir string
	// Poll caps the fleet sweep-status poll interval.
	Poll time.Duration
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// Run executes the experiment and returns its analysis. The context's
// trace (if any) tags every submission; without one, Run originates a
// fresh trace so the whole experiment is walkable via `mtatctl trace`.
func (r *Runner) Run(ctx context.Context, spec ExperimentSpec) (*Analysis, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if r.Backend == nil && r.Fleet == nil {
		return nil, fmt.Errorf("hypothesis: runner needs a backend or a fleet client")
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}

	var (
		j  *journal.Journal
		st = &expState{submitted: make(map[string]string), settled: make(map[string]Measurement)}
	)
	if r.DataDir != "" {
		j, st, err = openState(r.DataDir, spec.Name)
		if err != nil {
			return nil, err
		}
		defer j.Close()
		if st.specJSON != nil && !jsonEqual(st.specJSON, specJSON) {
			return nil, fmt.Errorf(
				"hypothesis: experiment %q is already journaled with a different spec; rename the experiment or clear its journal",
				spec.Name)
		}
	}

	// Trace: resume under the journaled trace so the whole experiment —
	// pre- and post-crash — shares one trace ID; otherwise adopt the
	// context's, or originate one.
	switch {
	case st.trace != "":
		ctx = contextWithTrace(ctx, st.trace)
	case telemetry.SpanContextFrom(ctx).Valid():
		st.trace = telemetry.SpanContextFrom(ctx).Trace.String()
	default:
		var tid telemetry.TraceID
		ctx, tid = telemetry.NewTraceContext(ctx)
		st.trace = tid.String()
	}

	if j != nil && st.specJSON == nil {
		if err := j.Append(recStarted, startedRec{Spec: specJSON, Trace: st.trace}); err != nil {
			return nil, err
		}
	}

	cells := spec.Cells()
	if len(st.settled) > 0 || len(st.submitted) > 0 {
		r.logf("experiment %s: resuming (%d/%d cells settled, %d submitted)",
			spec.Name, len(st.settled), len(cells), len(st.submitted))
	}

	if r.Fleet != nil {
		err = r.runFleet(ctx, spec, st, j)
	} else {
		err = r.runCells(ctx, spec, cells, st, j)
	}
	if err != nil {
		return nil, err
	}

	ms := make([]Measurement, 0, len(st.settled))
	for _, c := range cells {
		if m, ok := st.settled[c.Key()]; ok {
			ms = append(ms, m)
		}
	}
	a, err := Analyze(spec, ms)
	if err != nil {
		return nil, err
	}
	a.Trace = st.trace
	if j != nil && !st.finished {
		if err := j.Append(recFinished, finishedRec{Verdict: a.Verdict}); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// runCells executes cells one by one on the backend: submit everything
// first (the daemon's worker pool pipelines), then collect. Settled
// cells replayed from the journal are skipped outright; submitted ones
// are re-awaited under their journaled run ID.
func (r *Runner) runCells(ctx context.Context, spec ExperimentSpec, cells []Cell, st *expState, j *journal.Journal) error {
	for _, c := range cells {
		key := c.Key()
		if _, done := st.settled[key]; done {
			continue
		}
		if _, inFlight := st.submitted[key]; inFlight {
			continue
		}
		id, err := r.submitCell(ctx, c, st, j)
		if err != nil {
			return err
		}
		r.logf("experiment %s: submitted %s as %s", spec.Name, key, id)
	}
	for _, c := range cells {
		key := c.Key()
		if _, done := st.settled[key]; done {
			continue
		}
		id := st.submitted[key]
		status, err := r.Backend.Wait(ctx, id)
		if isRunGone(err) {
			// The daemon lost the run (restarted without a journal, or
			// the result was evicted). Resubmit once — at-least-once
			// execution, like the fleet dispatcher.
			r.logf("experiment %s: run %s for %s vanished; resubmitting", spec.Name, id, key)
			if id, err = r.submitCell(ctx, c, st, j); err != nil {
				return err
			}
			status, err = r.Backend.Wait(ctx, id)
		}
		if err != nil {
			return fmt.Errorf("hypothesis: cell %s: %w", key, err)
		}
		if status.State != server.StateDone || status.Result == nil {
			// A failed cell is not journaled as settled: a resume retries
			// it, and this pass analyzes around the hole.
			r.logf("experiment %s: cell %s finished %s (%s); its seed pair is excluded",
				spec.Name, key, status.State, status.Error)
			delete(st.submitted, key)
			continue
		}
		m := Measurement{
			Config: c.Config, Seed: c.Seed, RunID: status.ID,
			Trace: status.Trace, Result: *status.Result,
		}
		if m.Trace == "" {
			m.Trace = st.trace
		}
		if err := r.settle(m, st, j); err != nil {
			return err
		}
		r.logf("experiment %s: settled %s", spec.Name, key)
	}
	return nil
}

func (r *Runner) submitCell(ctx context.Context, c Cell, st *expState, j *journal.Journal) (string, error) {
	status, err := r.Backend.Submit(ctx, c.Spec)
	if err != nil {
		return "", fmt.Errorf("hypothesis: submit cell %s: %w", c.Key(), err)
	}
	st.submitted[c.Key()] = status.ID
	if j != nil {
		if err := j.Append(recSubmitted, submittedRec{Config: c.Config, Seed: c.Seed, RunID: status.ID}); err != nil {
			return "", err
		}
	}
	return status.ID, nil
}

func (r *Runner) settle(m Measurement, st *expState, j *journal.Journal) error {
	key := m.Config + "/" + strconv.FormatInt(m.Seed, 10)
	st.settled[key] = m
	if j != nil {
		return j.Append(recSettled, m)
	}
	return nil
}

// runFleet compiles the experiment to a sweep and runs it on the fleet.
// The sweep ID is journaled so a killed harness re-attaches to the
// in-flight sweep instead of submitting a second one (the fleet's own
// journal keeps the sweep alive across mtatfleet restarts).
func (r *Runner) runFleet(ctx context.Context, spec ExperimentSpec, st *expState, j *journal.Journal) error {
	sw, err := spec.SweepSpec()
	if err != nil {
		return err
	}
	if st.sweepID == "" {
		sst, err := r.Fleet.SubmitSweep(ctx, sw)
		if err != nil {
			return fmt.Errorf("hypothesis: submit sweep: %w", err)
		}
		st.sweepID = sst.ID
		if j != nil {
			if err := j.Append(recSweep, sweepRec{SweepID: sst.ID}); err != nil {
				return err
			}
		}
		r.logf("experiment %s: submitted fleet sweep %s (%d cells)", spec.Name, sst.ID, sst.Cells)
	} else {
		r.logf("experiment %s: re-attaching to fleet sweep %s", spec.Name, st.sweepID)
	}
	if _, err := r.Fleet.WaitSweep(ctx, st.sweepID, r.Poll); err != nil {
		return fmt.Errorf("hypothesis: wait sweep %s: %w", st.sweepID, err)
	}
	sums, err := r.Fleet.Results(ctx, st.sweepID)
	if err != nil {
		return fmt.Errorf("hypothesis: sweep %s results: %w", st.sweepID, err)
	}
	for _, sum := range sums {
		if sum.State != string(cluster.CellDone) {
			r.logf("experiment %s: sweep cell %s finished %s (%s); excluded",
				spec.Name, sum.Label, sum.State, sum.Error)
			continue
		}
		cfg, ok := spec.configOfSummary(sum)
		if !ok {
			return fmt.Errorf("hypothesis: sweep cell %q matches neither arm", sum.Label)
		}
		m := Measurement{
			Config: cfg, Seed: sum.Seed, Node: sum.Node, Trace: sum.Trace,
			Result: server.RunResult{
				Policy:          sum.Policy,
				SLOMet:          sum.SLOMet,
				LCViolationRate: sum.LCViolationRate,
				LCMaxP99:        sum.LCMaxP99,
				LCMeanP99:       sum.LCMeanP99,
				BEFairness:      sum.BEMinNP,
				BEThroughput:    sum.BEThroughput,
				MigratedBytes:   sum.MigratedBytes,
				Ticks:           sum.Ticks,
			},
		}
		if _, done := st.settled[cfg+"/"+strconv.FormatInt(sum.Seed, 10)]; done {
			continue
		}
		if err := r.settle(m, st, j); err != nil {
			return err
		}
	}
	return nil
}

// configOfSummary maps a sweep cell summary back to the arm that
// produced it, by the varied axis's value.
func (s ExperimentSpec) configOfSummary(sum cluster.CellSummary) (string, bool) {
	for _, arm := range []struct {
		name string
		spec sim.RunSpec
	}{
		{s.Baseline.Name, s.BaselineSpec()},
		{s.Candidate.Name, s.CandidateSpec()},
	} {
		if sum.Policy != arm.spec.PolicyName() || sum.LC != arm.spec.LC ||
			sum.SLOScale != arm.spec.SLOScale {
			continue
		}
		if sum.BEs != joinBEs(arm.spec.BEs) {
			continue
		}
		if kind := loadKind(arm.spec.Load); sum.Load != kind {
			continue
		}
		return arm.name, true
	}
	return "", false
}

func joinBEs(bes []string) string {
	out := ""
	for i, b := range bes {
		if i > 0 {
			out += "+"
		}
		out += b
	}
	return out
}

func loadKind(l *sim.LoadSpec) string {
	if l == nil {
		return ""
	}
	return l.Kind
}

// isRunGone reports a definitive "this run no longer exists" answer,
// from either transport (HTTP 404) or an in-process manager.
func isRunGone(err error) bool {
	var apiErr *daemonkit.APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode == http.StatusNotFound
	}
	return errors.Is(err, server.ErrNotFound)
}

// jsonEqual compares two JSON documents structurally (whitespace- and
// key-order-insensitive).
func jsonEqual(a, b json.RawMessage) bool {
	var av, bv any
	if json.Unmarshal(a, &av) != nil || json.Unmarshal(b, &bv) != nil {
		return false
	}
	ab, err1 := json.Marshal(av)
	bb, err2 := json.Marshal(bv)
	return err1 == nil && err2 == nil && string(ab) == string(bb)
}

// contextWithTrace rebuilds a trace context from a journaled hex trace
// ID, so resumed submissions join the original experiment trace.
func contextWithTrace(ctx context.Context, trace string) context.Context {
	h := http.Header{}
	h.Set("traceparent", "00-"+trace+"-"+telemetry.NewSpanID().String()+"-01")
	if sc, ok := telemetry.Extract(h); ok {
		return telemetry.ContextWithSpanContext(ctx, sc)
	}
	return ctx
}

// Status is the journal's read-only view of an experiment's progress —
// what `mtatctl experiment status` prints.
type Status struct {
	Name string `json:"name"`
	// Cells is the experiment's total cell count per its spec.
	Cells int `json:"cells"`
	// Settled counts cells with journaled measurements.
	Settled int `json:"settled"`
	// InFlight counts cells submitted but not yet settled.
	InFlight int `json:"in_flight"`
	// Finished reports whether the experiment concluded.
	Finished bool    `json:"finished"`
	Verdict  Verdict `json:"verdict,omitempty"`
	Trace    string  `json:"trace,omitempty"`
	// SweepID is set when the experiment ran via a fleet sweep.
	SweepID string `json:"sweep_id,omitempty"`
}

// ReadState loads an experiment's journaled measurements and status
// without running anything — the backing for `mtatctl experiment
// status` and `report`. The returned spec is the journaled one, which
// Run guarantees matches what the experiment actually executed.
func ReadState(dataDir string, spec ExperimentSpec) (Status, []Measurement, error) {
	j, st, err := openState(dataDir, spec.Name)
	if err != nil {
		return Status{}, nil, err
	}
	defer j.Close()
	if st.specJSON == nil {
		return Status{}, nil, fmt.Errorf("hypothesis: experiment %q has no journal under %s (run it first)",
			spec.Name, dataDir)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return Status{}, nil, err
	}
	if !jsonEqual(st.specJSON, specJSON) {
		return Status{}, nil, fmt.Errorf(
			"hypothesis: journal for %q was written by a different spec", spec.Name)
	}
	cells := spec.Cells()
	out := Status{
		Name:     spec.Name,
		Cells:    len(cells),
		Settled:  len(st.settled),
		Finished: st.finished,
		Verdict:  st.verdict,
		Trace:    st.trace,
		SweepID:  st.sweepID,
	}
	ms := make([]Measurement, 0, len(st.settled))
	for _, c := range cells {
		key := c.Key()
		if m, ok := st.settled[key]; ok {
			ms = append(ms, m)
		} else if _, ok := st.submitted[key]; ok {
			out.InFlight++
		}
	}
	return out, ms, nil
}
