package hypothesis

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tieredmem/mtat/internal/cluster"
	"github.com/tieredmem/mtat/internal/server"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// fastSpec is a cheap end-to-end experiment: fmem-all (everything in
// fast memory) must beat smem-all (everything in slow memory) on mean
// P99 — rigged so the verdict is predictable.
func fastSpec() ExperimentSpec {
	return ExperimentSpec{
		Name:       "fmem-beats-smem",
		Hypothesis: "serving the LC from fast memory lowers its mean P99 versus all-slow placement",
		Metric:     "lc_mean_p99_s",
		Base: sim.RunSpec{
			LC: "redis", BEs: []string{"sssp"}, Scale: 16,
			DurationSeconds: 5, TickSeconds: 0.1,
		},
		Baseline:  Config{Name: "all-slow", Policy: "smem-all"},
		Candidate: Config{Name: "all-fast", Policy: "fmem-all"},
		Seeds:     []int64{1, 2, 3},
	}
}

func newTestManager(t *testing.T) *server.Manager {
	t.Helper()
	mgr, err := server.NewManager(server.Config{Workers: 2, QueueCap: 32, Telemetry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_ = mgr.Shutdown(ctx)
	})
	return mgr
}

func TestRunnerEndToEndLocal(t *testing.T) {
	mgr := newTestManager(t)
	r := &Runner{
		Backend: &LocalBackend{Manager: mgr},
		DataDir: t.TempDir(),
		Logf:    t.Logf,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	spec := fastSpec()
	a, err := r.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pairs) != 3 || len(a.MissingSeeds) != 0 {
		t.Fatalf("pairs = %+v, missing = %v", a.Pairs, a.MissingSeeds)
	}
	if a.Verdict != VerdictSupported {
		t.Errorf("verdict = %s, reasons = %v", a.Verdict, a.Reasons)
	}
	if a.Trace == "" {
		t.Error("analysis carries no trace")
	}
	for _, p := range a.Pairs {
		if p.Outcome != OutcomeWin {
			t.Errorf("seed %d: fast memory lost to slow memory (%+v)", p.Seed, p)
		}
	}

	// The journal now answers status and report queries offline.
	st, ms, err := ReadState(r.DataDir, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Settled != 6 || st.Cells != 6 || !st.Finished || st.Verdict != a.Verdict {
		t.Errorf("status = %+v", st)
	}
	if st.Trace != a.Trace {
		t.Errorf("status trace = %q, analysis trace = %q", st.Trace, a.Trace)
	}
	a2, err := Analyze(spec, ms)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Verdict != a.Verdict || len(a2.Pairs) != len(a.Pairs) {
		t.Errorf("replayed analysis diverged: %s vs %s", a2.Verdict, a.Verdict)
	}

	// Re-running a finished experiment is a pure replay: no new
	// submissions, same verdict.
	counting := &countingBackend{inner: &LocalBackend{Manager: mgr}}
	r2 := &Runner{Backend: counting, DataDir: r.DataDir, Logf: t.Logf}
	a3, err := r2.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if counting.submits.Load() != 0 || counting.waits.Load() != 0 {
		t.Errorf("finished experiment re-ran cells: %d submits, %d waits",
			counting.submits.Load(), counting.waits.Load())
	}
	if a3.Verdict != a.Verdict {
		t.Errorf("replayed verdict = %s, want %s", a3.Verdict, a.Verdict)
	}
}

// countingBackend wraps a backend and counts calls; killAfter > 0 makes
// Wait fail once that many waits have completed (a harness crash).
type countingBackend struct {
	inner     Backend
	submits   atomic.Int32
	waits     atomic.Int32
	killAfter int32
}

func (b *countingBackend) Submit(ctx context.Context, spec sim.RunSpec) (server.RunStatus, error) {
	b.submits.Add(1)
	return b.inner.Submit(ctx, spec)
}

func (b *countingBackend) Wait(ctx context.Context, id string) (server.RunStatus, error) {
	if n := b.waits.Add(1); b.killAfter > 0 && n > b.killAfter {
		return server.RunStatus{}, errors.New("harness killed")
	}
	return b.inner.Wait(ctx, id)
}

func TestRunnerResumesAfterCrash(t *testing.T) {
	mgr := newTestManager(t)
	dataDir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	spec := fastSpec()

	// First attempt dies after two cells settle.
	dying := &countingBackend{inner: &LocalBackend{Manager: mgr}, killAfter: 2}
	r1 := &Runner{Backend: dying, DataDir: dataDir, Logf: t.Logf}
	if _, err := r1.Run(ctx, spec); err == nil {
		t.Fatal("killed run reported success")
	}
	if dying.submits.Load() != 6 {
		t.Fatalf("first attempt submitted %d cells, want 6", dying.submits.Load())
	}

	// Second attempt resumes: every cell was already submitted (and
	// journaled), so it submits nothing and re-awaits the survivors.
	resumed := &countingBackend{inner: &LocalBackend{Manager: mgr}}
	r2 := &Runner{Backend: resumed, DataDir: dataDir, Logf: t.Logf}
	a, err := r2.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.submits.Load() != 0 {
		t.Errorf("resume resubmitted %d cells, want 0 (run IDs were journaled)", resumed.submits.Load())
	}
	if got := resumed.waits.Load(); got != 4 {
		t.Errorf("resume awaited %d cells, want 4 (2 already settled)", got)
	}
	if len(a.Pairs) != 3 || a.Verdict != VerdictSupported {
		t.Errorf("resumed analysis: %d pairs, verdict %s (%v)", len(a.Pairs), a.Verdict, a.Reasons)
	}
}

func TestRunnerResubmitsVanishedRuns(t *testing.T) {
	// Journaled run IDs can outlive the daemon's memory of them (restart
	// without -data-dir). The runner must resubmit instead of failing.
	mgr := newTestManager(t)
	dataDir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	spec := fastSpec()
	spec.Seeds = []int64{1, 2} // 4 cells is enough here

	// Fabricate a journal claiming runs that the manager never saw.
	j, st, err := openState(dataDir, spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.settled) != 0 {
		t.Fatalf("fresh journal has %d settled cells", len(st.settled))
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(recStarted, startedRec{Spec: specJSON}); err != nil {
		t.Fatal(err)
	}
	for _, c := range spec.Cells() {
		if err := j.Append(recSubmitted, submittedRec{Config: c.Config, Seed: c.Seed, RunID: "r9999" + c.Key()}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	r := &Runner{Backend: &LocalBackend{Manager: mgr}, DataDir: dataDir, Logf: t.Logf}
	a, err := r.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pairs) != 2 {
		t.Fatalf("pairs = %+v", a.Pairs)
	}
}

func TestRunnerSpecChangeGuard(t *testing.T) {
	mgr := newTestManager(t)
	dataDir := t.TempDir()
	ctx := context.Background()
	spec := fastSpec()

	j, _, err := openState(dataDir, spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(recStarted, startedRec{Spec: specJSON}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	spec.Seeds = []int64{7, 8, 9} // different experiment, same name
	r := &Runner{Backend: &LocalBackend{Manager: mgr}, DataDir: dataDir}
	if _, err := r.Run(ctx, spec); err == nil {
		t.Fatal("changed spec accepted under an existing journal")
	}
}

func TestRunnerFleet(t *testing.T) {
	// The fleet path: compile to a sweep, run it on a real mtatfleet
	// stack (registry + dispatcher + node), map summaries back to arms.
	tel := telemetry.New()
	mgr := newTestManager(t)
	nodeSrv := httptest.NewServer(server.NewHandler(mgr, tel, true))
	defer nodeSrv.Close()

	fleet, err := cluster.NewFleet(cluster.FleetConfig{Telemetry: tel, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		_ = fleet.Shutdown(sctx)
	}()
	if _, err := fleet.Reg.Add(nodeSrv.URL, 1); err != nil {
		t.Fatal(err)
	}
	fleetSrv := httptest.NewServer(cluster.NewHandler(fleet, tel, true))
	defer fleetSrv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	r := &Runner{
		Fleet:   cluster.NewClient(fleetSrv.URL),
		DataDir: t.TempDir(),
		Poll:    25 * time.Millisecond,
		Logf:    t.Logf,
	}
	a, err := r.Run(ctx, fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pairs) != 3 || a.Verdict != VerdictSupported {
		t.Fatalf("fleet analysis: %d pairs, verdict %s (%v)", len(a.Pairs), a.Verdict, a.Reasons)
	}
	for _, p := range a.Pairs {
		if p.Outcome != OutcomeWin {
			t.Errorf("seed %d outcome %s", p.Seed, p.Outcome)
		}
	}
}
