package cluster

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/tieredmem/mtat/internal/daemonkit"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// newTestFleetAPI stands up a full fleet daemon — registry, dispatcher,
// HTTP API — and returns a client pointed at it.
func newTestFleetAPI(t *testing.T, nodes ...*testNode) (*Fleet, *Client) {
	t.Helper()
	tel := telemetry.New()
	f := newTestFleet(t, tel, nodes...)
	srv := httptest.NewServer(NewHandler(f, tel, true))
	t.Cleanup(srv.Close)
	return f, NewClient(srv.URL)
}

func TestAPISweepLifecycle(t *testing.T) {
	node := newTestNode(t, 2)
	_, c := newTestFleetAPI(t, node)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	spec := sweep12()
	spec.Seeds = []int64{1} // 4 cells is plenty over HTTP
	// Submit under a fresh trace so every exported cell row links back to
	// the distributed trace (the contract experiment reports rely on).
	tctx, trace := telemetry.NewTraceContext(ctx)
	st, err := c.SubmitSweep(tctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Cells != 4 || st.Name != "kill-test" {
		t.Fatalf("submitted status = %+v", st)
	}

	final, err := c.WaitSweep(ctx, st.ID, 25*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != SweepDone || final.Done != 4 {
		t.Fatalf("final = %+v", final)
	}

	list, err := c.Sweeps(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}

	sums, err := c.Results(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 4 {
		t.Fatalf("got %d summaries, want 4", len(sums))
	}
	for _, s := range sums {
		if s.State != CellDone || s.Sweep != "kill-test" {
			t.Errorf("summary = %+v", s)
		}
		if s.Seed != 1 {
			t.Errorf("summary %s: seed = %d, want 1", s.Label, s.Seed)
		}
		if s.Trace != trace.String() {
			t.Errorf("summary %s: trace = %q, want %q", s.Label, s.Trace, trace)
		}
	}

	// Exports parse.
	var jsonl strings.Builder
	if err := c.ResultsTo(ctx, st.ID, "jsonl", &jsonl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("jsonl export has %d lines, want 4", len(lines))
	}
	for _, ln := range lines {
		var s CellSummary
		if err := json.Unmarshal([]byte(ln), &s); err != nil {
			t.Fatalf("jsonl line %q: %v", ln, err)
		}
	}
	var csvBuf strings.Builder
	if err := c.ResultsTo(ctx, st.ID, "csv", &csvBuf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(csvBuf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 { // header + 4 cells
		t.Fatalf("csv export has %d records, want 5", len(recs))
	}
	// The seed and trace columns must survive the CSV round trip so an
	// experiment report can join each data point back to `mtatctl trace`.
	col := map[string]int{}
	for i, name := range recs[0] {
		col[name] = i
	}
	for _, want := range []string{"seed", "trace"} {
		if _, ok := col[want]; !ok {
			t.Fatalf("csv header %v missing %q column", recs[0], want)
		}
	}
	for _, rec := range recs[1:] {
		if got := rec[col["seed"]]; got != "1" {
			t.Errorf("csv seed = %q, want \"1\"", got)
		}
		if got := rec[col["trace"]]; got != trace.String() {
			t.Errorf("csv trace = %q, want %q", got, trace)
		}
	}
}

func TestAPINodeAdmin(t *testing.T) {
	node := newTestNode(t, 2)
	_, c := newTestFleetAPI(t)
	ctx := context.Background()

	info, err := c.AddNode(ctx, node.srv.URL, 2)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name == "" || info.Weight != 2 || !info.Healthy {
		t.Fatalf("added node = %+v", info)
	}

	var apiErr *daemonkit.APIError
	if _, err := c.AddNode(ctx, node.srv.URL, 1); !errors.As(err, &apiErr) ||
		apiErr.StatusCode != http.StatusConflict {
		t.Errorf("duplicate add error = %v, want 409", err)
	}

	nodes, err := c.Nodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 || nodes[0].Name != info.Name {
		t.Fatalf("nodes = %+v", nodes)
	}

	if err := c.RemoveNode(ctx, info.Name); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveNode(ctx, info.Name); !errors.As(err, &apiErr) ||
		apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("double remove error = %v, want 404", err)
	}
}

func TestAPIErrors(t *testing.T) {
	_, c := newTestFleetAPI(t)
	ctx := context.Background()
	var apiErr *daemonkit.APIError

	if _, err := c.Sweep(ctx, "s999999"); !errors.As(err, &apiErr) ||
		apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep error = %v, want 404", err)
	}
	if _, err := c.CancelSweep(ctx, "s999999"); !errors.As(err, &apiErr) ||
		apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown sweep error = %v, want 404", err)
	}

	// Invalid spec: a cell that fails RunSpec validation.
	bad := sim.SweepSpec{Base: sim.RunSpec{LC: "no-such-workload"}}
	if _, err := c.SubmitSweep(ctx, bad); !errors.As(err, &apiErr) ||
		apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid sweep error = %v, want 400", err)
	}

	// Unknown export format.
	node := newTestNode(t, 1)
	f, c2 := newTestFleetAPI(t, node)
	spec := sim.SweepSpec{
		Base:  sim.RunSpec{LC: "redis", BEs: []string{"sssp"}, Scale: 16, DurationSeconds: 2, TickSeconds: 0.1},
		Seeds: []int64{1},
	}
	st, err := f.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.ResultsTo(ctx, st.ID, "xml", io.Discard); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestAPIPprofGating mirrors the server-side test: the fleet's profiling
// surface must 404 unless NewHandler's pprof switch enables it
// (mtatfleet -pprof).
func TestAPIPprofGating(t *testing.T) {
	tel := telemetry.New()
	f := newTestFleet(t, tel)

	gated := httptest.NewServer(NewHandler(f, tel, false))
	defer gated.Close()
	open := httptest.NewServer(NewHandler(f, tel, true))
	defer open.Close()

	for srvURL, want := range map[string]int{
		gated.URL: http.StatusNotFound,
		open.URL:  http.StatusOK,
	} {
		resp, err := http.Get(srvURL + "/debug/pprof/heap")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s/debug/pprof/heap = %d, want %d", srvURL, resp.StatusCode, want)
		}
		resp, err = http.Get(srvURL + "/api/v1/nodes")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s/api/v1/nodes = %d", srvURL, resp.StatusCode)
		}
	}
}
