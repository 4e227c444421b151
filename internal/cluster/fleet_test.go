package cluster

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/tieredmem/mtat/internal/backoff"
	"github.com/tieredmem/mtat/internal/server"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// testNode is one in-process mtatd: a real run manager behind a real
// HTTP handler.
type testNode struct {
	mgr *server.Manager
	srv *httptest.Server
}

func newTestNode(t *testing.T, workers int) *testNode {
	t.Helper()
	tel := telemetry.New()
	mgr, err := server.NewManager(server.Config{Workers: workers, QueueCap: 32, Telemetry: tel})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	srv := httptest.NewServer(server.NewHandler(mgr, tel, true))
	n := &testNode{mgr: mgr, srv: srv}
	t.Cleanup(func() { n.kill(t) })
	return n
}

// kill simulates SIGKILL: the HTTP surface vanishes and every run dies.
// Idempotent.
func (n *testNode) kill(t *testing.T) {
	t.Helper()
	if n.srv != nil {
		n.srv.CloseClientConnections()
		n.srv.Close()
		n.srv = nil
	}
	if n.mgr != nil {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // expired: cancel outstanding runs, wait for workers
		_ = n.mgr.Shutdown(ctx)
		n.mgr = nil
	}
}

// fastRetry keeps test retry loops snappy.
var fastRetry = backoff.Policy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond}

func newTestFleet(t *testing.T, tel *telemetry.Telemetry, nodes ...*testNode) *Fleet {
	t.Helper()
	return newTestFleetCfg(t, FleetConfig{Telemetry: tel}, nodes...)
}

// newTestFleetCfg builds a fleet with test-speed probing/retry defaults
// merged into cfg.
func newTestFleetCfg(t *testing.T, cfg FleetConfig, nodes ...*testNode) *Fleet {
	t.Helper()
	if cfg.Registry.ProbeInterval == 0 {
		cfg.Registry = RegistryConfig{
			ProbeInterval: 25 * time.Millisecond,
			ProbeTimeout:  500 * time.Millisecond,
			MarkdownAfter: 2,
		}
	}
	if cfg.Dispatcher.Retry.Base == 0 {
		cfg.Dispatcher = DispatcherConfig{
			Retry:   fastRetry,
			PollMax: 25 * time.Millisecond,
		}
	}
	if cfg.SweepParallelism == 0 {
		cfg.SweepParallelism = 4
	}
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = f.Shutdown(ctx)
	})
	for _, n := range nodes {
		if _, err := f.Reg.Add(n.srv.URL, 1); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// sweep12 is a 12-cell sweep (2 policies × 2 SLO scales × 3 seeds) of
// scaled-down scenarios. tick 0.02 keeps each run around a few hundred
// milliseconds so a mid-sweep kill lands while work is in flight.
func sweep12() sim.SweepSpec {
	return sim.SweepSpec{
		Name: "kill-test",
		Base: sim.RunSpec{
			LC:              "redis",
			BEs:             []string{"sssp"},
			Load:            &sim.LoadSpec{Kind: "constant", Frac: 0.5, DurationSeconds: 10},
			Scale:           16,
			DurationSeconds: 10,
			TickSeconds:     0.02,
		},
		Policies:  []string{"memtis", "tpp"},
		SLOScales: []float64{1, 2},
		Seeds:     []int64{1, 2, 3},
	}
}

// TestFleetSweepCompletes runs a 12-cell sweep across two healthy nodes
// and checks the aggregated results and telemetry.
func TestFleetSweepCompletes(t *testing.T) {
	tel := telemetry.New()
	n1 := newTestNode(t, 2)
	n2 := newTestNode(t, 2)
	f := newTestFleet(t, tel, n1, n2)

	st, err := f.Submit(sweep12())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != 12 || st.State != SweepRunning {
		t.Fatalf("submit status = %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	final, err := f.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != SweepDone || final.Done != 12 || final.Failed != 0 {
		t.Fatalf("final = %+v", final)
	}

	sums, err := f.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 12 {
		t.Fatalf("got %d summaries, want 12", len(sums))
	}
	nodesUsed := map[string]int{}
	for _, s := range sums {
		if s.State != CellDone || s.Ticks != 500 || s.Node == "" {
			t.Errorf("bad summary: %+v", s)
		}
		nodesUsed[s.Node]++
	}
	// Least-loaded placement over two idle equal nodes must use both.
	if len(nodesUsed) != 2 {
		t.Errorf("work not spread across nodes: %v", nodesUsed)
	}
	m := tel.Metrics().Snapshot()
	if m.Counters["fleet_dispatched_total"] < 12 {
		t.Errorf("fleet_dispatched_total = %d, want >= 12", m.Counters["fleet_dispatched_total"])
	}
	if h := m.Histograms["fleet_dispatch_latency_s"]; h.Count < 12 {
		t.Errorf("dispatch latency histogram count = %d, want >= 12", h.Count)
	}
}

// TestFleetSurvivesNodeKillMidSweep is the headline guarantee: a node
// dies with accepted runs in flight and the sweep still completes, the
// lost cells re-dispatched to the surviving node, with the failover
// visible in telemetry.
func TestFleetSurvivesNodeKillMidSweep(t *testing.T) {
	tel := telemetry.New()
	n1 := newTestNode(t, 2)
	n2 := newTestNode(t, 2)
	f := newTestFleet(t, tel, n1, n2)

	st, err := f.Submit(sweep12())
	if err != nil {
		t.Fatal(err)
	}

	// Kill node 1 as soon as the fleet holds an accepted run on it that
	// the node has not finished. A running run alone is not enough: if
	// the fleet has not yet read the node's 202, the kill turns the
	// submit into a plain re-placement, not a failover.
	victim := n1
	deadline := time.Now().Add(60 * time.Second)
	for !holdsUnfinishedRun(f, victim) {
		if time.Now().After(deadline) {
			t.Fatal("victim node never held an accepted, unfinished run")
		}
		time.Sleep(time.Millisecond)
	}
	victim.kill(t)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	final, err := f.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != SweepDone || final.Done != 12 || final.Failed != 0 {
		t.Fatalf("final after node kill = %+v", final)
	}
	if final.Retried == 0 {
		t.Error("no cell recorded a retry despite the mid-sweep kill")
	}

	sums, err := f.Results(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	failovers := 0
	for _, s := range sums {
		if s.State != CellDone {
			t.Errorf("cell %s = %s (%s)", s.Label, s.State, s.Error)
		}
		if s.Attempts > 1 {
			failovers++
		}
	}
	if failovers == 0 {
		t.Error("no summary shows a multi-node attempt")
	}

	// Telemetry: the retry, the markdown, and the per-node failure all
	// observable.
	m := tel.Metrics().Snapshot()
	if m.Counters["fleet_dispatch_retries_total"] == 0 {
		t.Error("fleet_dispatch_retries_total = 0")
	}
	if m.Counters["fleet_node_markdowns_total"] == 0 {
		t.Error("fleet_node_markdowns_total = 0")
	}
	if m.Counters["fleet_cells_retried_total"] == 0 {
		t.Error("fleet_cells_retried_total = 0")
	}
	events := tel.Tracer().Events()
	var sawFailover, sawMarkdown bool
	for i := range events {
		switch events[i].Type {
		case "fleet.dispatch.failover":
			sawFailover = true
		case "fleet.node.markdown":
			sawMarkdown = true
		}
	}
	if !sawFailover || !sawMarkdown {
		t.Errorf("trace missing failover/markdown events (failover=%v markdown=%v)",
			sawFailover, sawMarkdown)
	}
}

// holdsUnfinishedRun reports whether the fleet's dispatcher has had more
// runs accepted by n than n has finished. The dispatch count is read
// before the node's, so a true answer means such a run existed after
// both reads.
func holdsUnfinishedRun(f *Fleet, n *testNode) bool {
	var dispatched int64
	for _, info := range f.Reg.Nodes() {
		if info.Addr == n.srv.URL {
			dispatched = info.Dispatched
		}
	}
	st := n.mgr.Stats()
	finished := st.TotalRuns - st.QueuedRuns - st.ActiveRuns
	return int64(finished) < dispatched
}

// TestFleetSweepFailsWithoutNodes asserts a sweep against an empty node
// pool settles as failed with ErrNoNodes on every cell.
func TestFleetSweepFailsWithoutNodes(t *testing.T) {
	f := newTestFleet(t, nil)
	spec := sim.SweepSpec{
		Base:  sim.RunSpec{LC: "redis", BEs: []string{"sssp"}, Scale: 16},
		Seeds: []int64{1, 2},
	}
	st, err := f.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	final, err := f.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != SweepFailed || final.Failed != 2 {
		t.Fatalf("final = %+v", final)
	}
	sums, _ := f.Results(st.ID)
	for _, s := range sums {
		if !strings.Contains(s.Error, "no viable node") {
			t.Errorf("cell error = %q", s.Error)
		}
	}
}

// TestFleetCancelSweep cancels mid-flight and asserts the sweep settles
// cancelled without waiting for every cell.
func TestFleetCancelSweep(t *testing.T) {
	n1 := newTestNode(t, 1)
	f := newTestFleet(t, nil, n1)

	spec := sweep12()
	spec.Base.TickSeconds = 0.005 // slow the runs down
	st, err := f.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	final, err := f.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != SweepCancelled {
		t.Fatalf("final = %+v", final)
	}
	if _, err := f.Cancel("s999999"); err == nil {
		t.Error("cancel of unknown sweep succeeded")
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 2}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{1, 2, 100, 4}, 3},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

// TestSlowCellFlagging drives flagSlowCellLocked directly: no flag while
// the sweep has too few settled cells, no flag for cells within the
// factor, one counter increment (and a histogram observation path via
// runCell is covered by the sweep e2e tests) for a genuine straggler.
func TestSlowCellFlagging(t *testing.T) {
	tel := telemetry.New()
	f := newTestFleet(t, tel)
	slow := tel.Metrics().Counter(telemetry.MetricFleetSlowCells)

	sw := &sweep{id: "s000001"}
	cr := &cellRun{cell: sim.Cell{Label: "redis/memtis/seed1"}, node: "n1"}

	// First cells establish the median; even a huge outlier must not flag
	// before slowCellMinSettled cells have settled.
	f.mu.Lock()
	for _, wall := range []float64{1.0, 1.1, 40.0} {
		f.flagSlowCellLocked(sw, cr, wall)
	}
	f.mu.Unlock()
	if got := slow.Value(); got != 0 {
		t.Fatalf("flagged %v cells before min settled", got)
	}

	// Median is now 1.1; a 2x cell stays under the 3x default factor...
	f.mu.Lock()
	f.flagSlowCellLocked(sw, cr, 2.2)
	f.mu.Unlock()
	if got := slow.Value(); got != 0 {
		t.Fatalf("flagged a within-factor cell (count %v)", got)
	}

	// ...and a 10x cell is a straggler. Median over {1.0 1.1 40 2.2} = 1.65.
	f.mu.Lock()
	f.flagSlowCellLocked(sw, cr, 16.5)
	f.mu.Unlock()
	if got := slow.Value(); got != 1 {
		t.Fatalf("slow-cell counter = %v, want 1", got)
	}
	if len(sw.walls) != 5 {
		t.Fatalf("walls len %d, want 5", len(sw.walls))
	}
}
