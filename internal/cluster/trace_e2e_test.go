package cluster

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/tieredmem/mtat/internal/server"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// TestDistributedTraceTree drives one sweep through the full HTTP
// control plane — client root trace → fleet API → dispatcher → node API
// → run execution — then merges the spans both daemons retain (the same
// way `mtatctl trace` does) and asserts they form one connected tree
// under a single trace ID.
func TestDistributedTraceTree(t *testing.T) {
	nodeTel := telemetry.NewWithConfig(telemetry.Config{Service: "mtatd"})
	mgr, err := server.NewManager(server.Config{Workers: 2, QueueCap: 32, Telemetry: nodeTel})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	nodeSrv := httptest.NewServer(server.NewHandler(mgr, nodeTel, true))
	t.Cleanup(nodeSrv.Close)

	fleetTel := telemetry.NewWithConfig(telemetry.Config{Service: "mtatfleet"})
	f := newTestFleetCfg(t, FleetConfig{Telemetry: fleetTel})
	fleetSrv := httptest.NewServer(NewHandler(f, fleetTel, true))
	t.Cleanup(fleetSrv.Close)

	ctx := context.Background()
	fc := NewClient(fleetSrv.URL)
	nc := server.NewClient(nodeSrv.URL)
	if err := fc.Ready(ctx); err != nil {
		t.Fatalf("fleet not ready: %v", err)
	}
	if err := nc.Ready(ctx); err != nil {
		t.Fatalf("node not ready: %v", err)
	}
	if _, err := fc.AddNode(ctx, nodeSrv.URL, 1); err != nil {
		t.Fatalf("AddNode: %v", err)
	}

	// The client opens the root of the distributed trace, exactly like
	// `mtatctl sweep submit` does.
	tctx, trace := telemetry.NewTraceContext(ctx)
	spec := sim.SweepSpec{
		Name: "trace-e2e",
		Base: sim.RunSpec{
			LC:              "redis",
			BEs:             []string{"sssp"},
			Load:            &sim.LoadSpec{Kind: "constant", Frac: 0.5, DurationSeconds: 10},
			Scale:           16,
			DurationSeconds: 10,
			TickSeconds:     0.02,
		},
		Policies:  []string{"memtis"},
		SLOScales: []float64{1},
		Seeds:     []int64{1, 2},
	}
	st, err := fc.SubmitSweep(tctx, spec)
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	if st.Trace != trace.String() {
		t.Fatalf("sweep status trace = %q, want %q", st.Trace, trace)
	}
	final, err := fc.WaitSweep(ctx, st.ID, 25*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitSweep: %v", err)
	}
	if final.State != SweepDone {
		t.Fatalf("sweep state = %s, want done", final.State)
	}

	// Merge the two daemons' span stores over the same HTTP surface
	// mtatctl trace uses, deduping by span ID.
	fleetSpans, err := fc.Traces(ctx, trace.String())
	if err != nil {
		t.Fatalf("fleet Traces: %v", err)
	}
	nodeSpans, err := nc.Traces(ctx, trace.String())
	if err != nil {
		t.Fatalf("node Traces: %v", err)
	}
	byID := make(map[telemetry.SpanID]telemetry.Span)
	for _, sp := range append(fleetSpans, nodeSpans...) {
		if sp.Trace.String() != trace.String() {
			t.Fatalf("span %s carries trace %s, want %s", sp.Name, sp.Trace, trace)
		}
		byID[sp.ID] = sp
	}

	names := make(map[string]int)
	for _, sp := range byID {
		names[sp.Name]++
	}
	for _, want := range []string{
		"http POST /api/v1/sweeps", "sweep.run", "cell.dispatch",
		"node.run", "http POST /api/v1/runs", "run.execute",
	} {
		if names[want] == 0 {
			t.Errorf("merged trace is missing span %q (have %v)", want, names)
		}
	}
	if names["run.execute"] != final.Cells {
		t.Errorf("run.execute spans = %d, want one per cell (%d)", names["run.execute"], final.Cells)
	}

	// Every run.execute must chain all the way up — through the node's
	// server span, the fleet's dispatch spans — to the fleet's sweep
	// submission span, whose parent (the client root) is recorded
	// nowhere. That is what "one connected tree" means.
	for _, sp := range byID {
		if sp.Name != "run.execute" {
			continue
		}
		seen := map[string]bool{}
		cur := sp
		for hops := 0; ; hops++ {
			if hops > 32 {
				t.Fatalf("run.execute ancestry did not terminate: %v", seen)
			}
			parent, ok := byID[cur.Parent]
			if !ok {
				if cur.Name != "http POST /api/v1/sweeps" {
					t.Errorf("run.execute tree root = %q, want the fleet submit span (path %v)", cur.Name, seen)
				}
				break
			}
			seen[parent.Name] = true
			cur = parent
		}
		for _, want := range []string{"node.run", "cell.dispatch", "sweep.run"} {
			if !seen[want] {
				t.Errorf("run.execute ancestry missing %q: %v", want, seen)
			}
		}
	}
}
