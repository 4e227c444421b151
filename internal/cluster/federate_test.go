package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/tieredmem/mtat/internal/telemetry"
)

func scrapeFederate(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics/federate")
	if err != nil {
		t.Fatalf("GET /metrics/federate: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("federate scrape = HTTP %d, want 200 always", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.PromContentType {
		t.Fatalf("federate Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestFederateMergesLiveNodesAndMarksKilledStale is the satellite e2e:
// two live mtatd nodes merge into one exposition with per-node labels;
// SIGKILLing one node marks it stale instead of failing the scrape.
func TestFederateMergesLiveNodesAndMarksKilledStale(t *testing.T) {
	tel := telemetry.New()
	n1 := newTestNode(t, 2)
	n2 := newTestNode(t, 2)
	f := newTestFleet(t, tel, n1, n2)
	f.Federator().Timeout = 500 * time.Millisecond
	fleetSrv := httptest.NewServer(NewHandler(f, tel, true))
	defer fleetSrv.Close()

	// A finished sweep gives both nodes real run metrics and HTTP
	// traffic (latency histograms with exemplars via traced requests).
	st, err := f.Submit(sweep12())
	if err != nil {
		t.Fatal(err)
	}
	waitSweepDone(t, f, st.ID)

	body := scrapeFederate(t, fleetSrv.URL)
	for _, want := range []string{
		`node="n1"`, `node="n2"`, `node="fleet"`,
		`federate_node_up{node="n1"} 1`,
		`federate_node_up{node="n2"} 1`,
		`federate_node_stale{node="n1"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("federated exposition missing %q:\n%s", want, body)
		}
	}
	// Merged families declare their TYPE exactly once.
	if n := strings.Count(body, "# TYPE http_requests_in_flight gauge"); n != 1 {
		t.Fatalf("http_requests_in_flight TYPE declared %d times, want 1", n)
	}
	// The fleet's traced dispatches give the nodes' HTTP histograms
	// trace-ID exemplars, which must survive the merge.
	if !strings.Contains(body, `# {trace_id="`) {
		t.Fatal("federated exposition carries no trace exemplars")
	}

	// SIGKILL node 2: the scrape must stay 200, keep serving n2's cached
	// text, and mark it down + stale.
	n2.kill(t)
	body = scrapeFederate(t, fleetSrv.URL)
	for _, want := range []string{
		`federate_node_up{node="n1"} 1`,
		`federate_node_up{node="n2"} 0`,
		`federate_node_stale{node="n2"} 1`,
		`node="n2"`, // cached exposition still merged
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("post-kill exposition missing %q:\n%s", want, body)
		}
	}
	if !strings.Contains(body, "federate_scrape_age_seconds") {
		t.Fatal("no scrape-age markers")
	}
}

func waitSweepDone(t *testing.T, f *Fleet, id string) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, err := f.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if st.State.Terminal() {
			if st.State != SweepDone {
				t.Fatalf("sweep %s ended %s (%d failed)", id, st.State, st.Failed)
			}
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("sweep %s never finished", id)
	return SweepStatus{}
}

// TestSplitPromSample covers the quote-aware label-block parser —
// label values legitimately contain braces and escaped quotes.
func TestSplitPromSample(t *testing.T) {
	cases := []struct {
		line, name, labels, rest string
		ok                       bool
	}{
		{`up 1`, "up", "", " 1", true},
		{`http_total{code="200"} 5`, "http_total", `code="200"`, " 5", true},
		{`lat{route="GET /api/v1/runs/{id}"} 0.2`, "lat", `route="GET /api/v1/runs/{id}"`, " 0.2", true},
		{`x{l="a\"b}"} 1`, "x", `l="a\"b}"`, " 1", true},
		{`b_bucket{le="0.1"} 5 # {trace_id="ab"} 0.07 1.7e9`, "b_bucket", `le="0.1"`,
			` 5 # {trace_id="ab"} 0.07 1.7e9`, true},
		{`{strange} 1`, "", "", "", false},
		{`unterminated{l="x 1`, "", "", "", false},
		{`# comment`, "", "", "", false},
	}
	for _, c := range cases {
		name, labels, rest, ok := splitPromSample(c.line)
		if name != c.name || labels != c.labels || rest != c.rest || ok != c.ok {
			t.Errorf("splitPromSample(%q) = (%q, %q, %q, %v), want (%q, %q, %q, %v)",
				c.line, name, labels, rest, ok, c.name, c.labels, c.rest, c.ok)
		}
	}
}

// TestSweepSSEStream: the fleet streams sweep.state and cell.settled
// events over SSE, and a late subscriber with a cursor resumes
// duplicate-free.
func TestSweepSSEStream(t *testing.T) {
	tel := telemetry.New()
	n1 := newTestNode(t, 2)
	f := newTestFleet(t, tel, n1)
	fleetSrv := httptest.NewServer(NewHandler(f, tel, true))
	defer fleetSrv.Close()
	fc := NewClient(fleetSrv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Subscribe before submitting so retention covers the whole sweep.
	stream, err := fc.StreamEvents(ctx, "", "") // firehose
	if err != nil {
		t.Fatalf("StreamEvents: %v", err)
	}
	defer stream.Close()

	spec := sweep12()
	spec.Seeds = []int64{1} // 4 cells is enough
	st, err := f.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	var settled int
	var lastID uint64
	for {
		frame, err := stream.Next()
		if err != nil {
			t.Fatalf("stream ended after %d settlements: %v", settled, err)
		}
		if strings.HasPrefix(frame.Event, "stream.") {
			continue
		}
		var ev telemetry.BusEvent
		if err := json.Unmarshal(frame.Data, &ev); err != nil {
			t.Fatalf("bad payload %q: %v", frame.Data, err)
		}
		if ev.ID <= lastID {
			t.Fatalf("event IDs not increasing: %d after %d", ev.ID, lastID)
		}
		lastID = ev.ID
		switch ev.Kind {
		case telemetry.EvBusCellSettled:
			settled++
		case telemetry.EvBusSweepState:
			var ss SweepStatus
			raw, _ := json.Marshal(ev.Data)
			if err := json.Unmarshal(raw, &ss); err != nil {
				t.Fatalf("bad sweep.state: %v", err)
			}
			if ss.ID == st.ID && ss.State.Terminal() {
				if settled != 4 {
					t.Fatalf("saw %d cell.settled events, want 4", settled)
				}
				return
			}
		}
	}
}
