package server

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// newTestManager fails the test instead of returning NewManager's error
// (only reachable with a DataDir).
func newTestManager(t testing.TB, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

// shortSpec is a scenario that finishes in well under a second: 1/16
// scale, constant load, 10 simulated seconds.
func shortSpec(seed int64) sim.RunSpec {
	return sim.RunSpec{
		LC:              "redis",
		BEs:             []string{"sssp"},
		Policy:          "memtis",
		Load:            &sim.LoadSpec{Kind: "constant", Frac: 0.5, DurationSeconds: 10},
		Scale:           16,
		Seed:            seed,
		DurationSeconds: 10,
	}
}

// longSpec is a scenario that runs for minutes of wall clock — used to
// exercise cancellation and backpressure. The fine tick makes each
// simulated second expensive without changing the model.
func longSpec(seed int64) sim.RunSpec {
	s := shortSpec(seed)
	s.Load = &sim.LoadSpec{Kind: "constant", Frac: 0.5, DurationSeconds: 3600}
	s.DurationSeconds = 3600
	s.TickSeconds = 0.01
	return s
}

func waitState(t *testing.T, m *Manager, id string, want State) RunStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("run %s reached %s (err %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s never reached %s", id, want)
	return RunStatus{}
}

func shutdownOrFail(t *testing.T, m *Manager, timeout time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestSubmitComplete(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	defer shutdownOrFail(t, m, 30*time.Second)

	st, err := m.Submit(shortSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != StateQueued {
		t.Fatalf("bad submit status: %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := m.WaitRun(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("run %s ended %s (err %q)", st.ID, final.State, final.Error)
	}
	if final.Result == nil || final.Result.Ticks != 100 {
		t.Fatalf("bad result summary: %+v", final.Result)
	}
	if final.StartedAt == nil || final.FinishedAt == nil {
		t.Fatalf("missing timestamps: %+v", final)
	}
	res, err := m.Result(st.ID)
	if err != nil || res == nil || res.Ticks != 100 {
		t.Fatalf("full result unavailable: %v %v", res, err)
	}
}

func TestSubmitInvalidSpec(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	defer shutdownOrFail(t, m, 10*time.Second)
	spec := shortSpec(1)
	spec.LC = "postgres"
	if _, err := m.Submit(spec); err == nil || !strings.Contains(err.Error(), "redis") {
		t.Fatalf("invalid spec error should list names, got %v", err)
	}
}

// TestConcurrentRuns drives the acceptance bar: >= 8 scenario runs in
// flight at once, each with isolated per-run telemetry.
func TestConcurrentRuns(t *testing.T) {
	const n = 8
	m := newTestManager(t, Config{Workers: n, QueueCap: n})
	defer shutdownOrFail(t, m, 60*time.Second)

	ids := make([]string, n)
	for i := 0; i < n; i++ {
		spec := shortSpec(int64(i + 1))
		// Distinct durations give each run a distinct tick count, so a
		// telemetry bleed across tenants is detectable below.
		spec.Load.DurationSeconds = float64(10 + i)
		spec.DurationSeconds = float64(10 + i)
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, id := range ids {
		st, err := m.WaitRun(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if st.State != StateDone {
			t.Fatalf("run %s ended %s (err %q)", id, st.State, st.Error)
		}
		wantTicks := (10 + i) * 10
		if st.Result.Ticks != wantTicks {
			t.Errorf("run %s ticks = %d, want %d", id, st.Result.Ticks, wantTicks)
		}
		// Per-run isolation: the run's private trace and metrics reflect
		// exactly its own ticks.
		tr, err := m.Events(id)
		if err != nil {
			t.Fatalf("events %s: %v", id, err)
		}
		events := tr.Events()
		if len(events) == 0 || events[0].Type != telemetry.EvRunStart {
			t.Errorf("run %s trace missing run.start (%d events)", id, len(events))
			continue
		}
		last := events[len(events)-1]
		ticks, ok := last.Attr("ticks")
		if last.Type != telemetry.EvRunEnd || !ok || int(ticks) != wantTicks {
			t.Errorf("run %s trace end = %s ticks %g, want run.end with %d — telemetry bled across runs",
				id, last.Type, ticks, wantTicks)
		}
	}
	if got := len(m.List()); got != n {
		t.Errorf("List() = %d runs, want %d", got, n)
	}
}

func TestCancelRunning(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	defer shutdownOrFail(t, m, 30*time.Second)

	st, err := m.Submit(longSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateRunning)
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := m.WaitRun(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled {
		t.Fatalf("cancelled run ended %s", final.State)
	}
	if final.Result != nil {
		t.Fatal("cancelled run kept a result")
	}
}

func TestCancelQueued(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueCap: 4})
	defer shutdownOrFail(t, m, 30*time.Second)

	blocker, err := m.Submit(longSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker.ID, StateRunning)
	queued, err := m.Submit(shortSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("queued cancel state = %s", st.State)
	}
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel("r999999"); err == nil {
		t.Fatal("unknown run cancelled")
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueCap: 1})
	defer shutdownOrFail(t, m, 30*time.Second)

	running, err := m.Submit(longSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, StateRunning)
	queued, err := m.Submit(longSpec(2))
	if err != nil {
		t.Fatalf("queue slot submit: %v", err)
	}
	if _, err := m.Submit(longSpec(3)); err != ErrQueueFull {
		t.Fatalf("overflow submit returned %v, want ErrQueueFull", err)
	}
	// Unblock the drain in the deferred shutdown.
	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
}

func TestShutdownDrains(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2, QueueCap: 8})
	ids := make([]string, 4)
	for i := range ids {
		st, err := m.Submit(shortSpec(int64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, id := range ids {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Errorf("run %s drained to %s (err %q), want done", id, st.State, st.Error)
		}
	}
	if _, err := m.Submit(shortSpec(9)); err != ErrShuttingDown {
		t.Errorf("post-shutdown submit returned %v, want ErrShuttingDown", err)
	}
	// Idempotent: a second shutdown returns immediately.
	if err := m.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

func TestShutdownDeadlineCancelsRuns(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueCap: 4})
	running, err := m.Submit(longSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(longSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateCancelled {
			t.Errorf("run %s = %s after deadline shutdown, want cancelled", id, st.State)
		}
	}
}

// TestShutdownLeavesNoGoroutines pins the acceptance criterion that
// cancel and graceful shutdown leave no running goroutines behind.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	m := newTestManager(t, Config{Workers: 4, QueueCap: 8})
	st, err := m.Submit(shortSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	long, err := m.Submit(longSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := m.WaitRun(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(long.ID); err != nil {
		t.Fatal(err)
	}
	shutdownOrFail(t, m, 30*time.Second)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d before, %d after\n%s",
		before, runtime.NumGoroutine(), buf[:n])
}

func TestResultStoreEviction(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueCap: 8, MaxRuns: 2})
	defer shutdownOrFail(t, m, 60*time.Second)

	ids := make([]string, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := range ids {
		st, err := m.Submit(shortSpec(int64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
		if _, err := m.WaitRun(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Get(ids[0]); err == nil {
		t.Error("oldest finished run not evicted")
	}
	for _, id := range ids[1:] {
		if _, err := m.Get(id); err != nil {
			t.Errorf("recent run %s evicted: %v", id, err)
		}
	}
	if got := len(m.List()); got != 2 {
		t.Errorf("List() = %d, want 2", got)
	}
}

func TestManagerMetrics(t *testing.T) {
	tel := telemetry.New()
	m := newTestManager(t, Config{Workers: 1, Telemetry: tel})
	defer shutdownOrFail(t, m, 30*time.Second)

	st, err := m.Submit(shortSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := m.WaitRun(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	reg := tel.Metrics()
	if got := reg.Counter("server_runs_submitted_total").Value(); got != 1 {
		t.Errorf("submitted counter = %d", got)
	}
	if got := reg.Counter("server_runs_done_total").Value(); got != 1 {
		t.Errorf("done counter = %d", got)
	}
}

// A status read must not wait on the manager lock, which run submission,
// start and finish hold across their journal appends (each an fsync with
// Config.Fsync). The status it returns is the one last published: the
// run's terminal status once WaitRun returns.
func TestGetDoesNotWaitOnManagerLock(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueCap: 8})
	defer shutdownOrFail(t, m, 60*time.Second)
	sub, err := m.Submit(shortSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done, err := m.WaitRun(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || done.Result == nil {
		t.Fatalf("WaitRun returned state %q, result %v; want a done run with its result", done.State, done.Result)
	}

	got := make(chan RunStatus, 1)
	m.mu.Lock()
	go func() {
		st, err := m.Get(sub.ID)
		if err != nil {
			t.Error(err)
		}
		got <- st
	}()
	select {
	case st := <-got:
		m.mu.Unlock()
		if st.State != StateDone || st.Result == nil || st.Result.Ticks != done.Result.Ticks {
			t.Errorf("Get under a held manager lock = %+v, want %+v", st, done)
		}
	case <-time.After(10 * time.Second):
		m.mu.Unlock()
		t.Fatal("Get blocked on the manager lock")
	}
}
