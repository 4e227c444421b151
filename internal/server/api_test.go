package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/tieredmem/mtat/internal/daemonkit"
	"github.com/tieredmem/mtat/internal/flight"
	"github.com/tieredmem/mtat/internal/telemetry"
)

func newTestAPI(t *testing.T, cfg Config) (*Client, *Manager) {
	t.Helper()
	tel := telemetry.New()
	cfg.Telemetry = tel
	m := newTestManager(t, cfg)
	srv := httptest.NewServer(NewHandler(m, tel, true))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
		srv.Close()
	})
	return NewClient(srv.URL), m
}

func TestAPISubmitWaitEvents(t *testing.T) {
	c, _ := newTestAPI(t, Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	st, err := c.Submit(ctx, shortSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatalf("no run ID in %+v", st)
	}
	final, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Result == nil || final.Result.Ticks != 100 {
		t.Fatalf("bad final status: %+v", final)
	}

	var buf bytes.Buffer
	if err := c.Events(ctx, st.ID, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"type":"run.start"`) ||
		!strings.Contains(buf.String(), `"type":"run.end"`) {
		t.Errorf("events stream missing run markers:\n%.200s", buf.String())
	}

	runs, err := c.Runs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].ID != st.ID {
		t.Errorf("Runs() = %+v", runs)
	}

	meta, err := c.Meta(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.Policies) == 0 || len(meta.LCWorkloads) == 0 || meta.Workers != 2 {
		t.Errorf("bad meta: %+v", meta)
	}
}

func TestAPIValidationAndNotFound(t *testing.T) {
	c, _ := newTestAPI(t, Config{Workers: 1})
	ctx := context.Background()

	bad := shortSpec(1)
	bad.Policy = "lru"
	_, err := c.Submit(ctx, bad)
	apiErr, ok := err.(*daemonkit.APIError)
	if !ok || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad policy submit: %v", err)
	}
	if !strings.Contains(apiErr.Message, "memtis") {
		t.Errorf("error does not list valid policies: %q", apiErr.Message)
	}

	for _, probe := range []func() error{
		func() error { _, err := c.Run(ctx, "r999999"); return err },
		func() error { _, err := c.Cancel(ctx, "r999999"); return err },
		func() error { return c.Events(ctx, "r999999", &bytes.Buffer{}) },
	} {
		err := probe()
		apiErr, ok := err.(*daemonkit.APIError)
		if !ok || apiErr.StatusCode != http.StatusNotFound {
			t.Errorf("unknown run probe: %v", err)
		}
	}
}

func TestAPIQueueFull429(t *testing.T) {
	c, m := newTestAPI(t, Config{Workers: 1, QueueCap: 1})
	ctx := context.Background()

	running, err := c.Submit(ctx, longSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, StateRunning)
	queued, err := c.Submit(ctx, longSpec(2))
	if err != nil {
		t.Fatalf("queue slot submit: %v", err)
	}
	_, err = c.Submit(ctx, longSpec(3))
	apiErr, ok := err.(*daemonkit.APIError)
	if !ok || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %v, want HTTP 429", err)
	}

	// Cancel both so the deferred shutdown drains fast; the running one
	// round-trips through DELETE.
	st, err := c.Cancel(ctx, queued.ID)
	if err != nil || st.State != StateCancelled {
		t.Fatalf("cancel queued: %+v %v", st, err)
	}
	if _, err := c.Cancel(ctx, running.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, running.ID, 10*time.Millisecond)
	if err != nil || final.State != StateCancelled {
		t.Fatalf("cancelled run final = %+v %v", final, err)
	}
}

func TestAPIDebugSurface(t *testing.T) {
	c, _ := newTestAPI(t, Config{Workers: 1})
	for _, path := range []string{"/metrics", "/trace", "/debug/pprof/", "/api/v1/meta", "/"} {
		resp, err := http.Get(c.BaseURL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
	}
}

func TestAPIShutdown503(t *testing.T) {
	c, m := newTestAPI(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	_, err := c.Submit(ctx, shortSpec(1))
	apiErr, ok := err.(*daemonkit.APIError)
	if !ok || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit: %v, want HTTP 503", err)
	}
}

func TestAPIFlightDump(t *testing.T) {
	c, _ := newTestAPI(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	st, err := c.Submit(ctx, shortSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := c.Flight(ctx, st.ID, &buf); err != nil {
		t.Fatal(err)
	}
	var dump flight.Dump
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v\n%.200s", err, buf.String())
	}
	if dump.Capacity != DefaultRunTraceCapacity {
		t.Errorf("flight capacity %d, want %d", dump.Capacity, DefaultRunTraceCapacity)
	}
	kinds := map[string]bool{}
	for _, ev := range dump.Events {
		kinds[ev.Kind] = true
	}
	// run.end is always retained; run.start may have been overwritten on
	// long runs but must survive a 100-tick one.
	if !kinds[flight.KindRunStart] || !kinds[flight.KindRunEnd] {
		t.Errorf("flight dump missing run markers, kinds seen: %v", kinds)
	}

	err = c.Flight(ctx, "r999999", &bytes.Buffer{})
	apiErr, ok := err.(*daemonkit.APIError)
	if !ok || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run flight: %v, want HTTP 404", err)
	}
}

// TestFlightDropsOneSeries: trace loss of finished runs accumulates in
// one unlabeled flight_events_dropped_total series, so evicted runs
// leave no per-run series behind in /metrics.
func TestFlightDropsOneSeries(t *testing.T) {
	c, _ := newTestAPI(t, Config{Workers: 1, MaxRuns: 2, RunTraceCapacity: 16})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var last string
	for i := 0; i < 5; i++ {
		st, err := c.Submit(ctx, shortSpec(int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, st.ID, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		last = st.ID
	}
	dump, err := c.FlightAfter(ctx, last, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dump.Capacity != 16 || dump.Dropped == 0 {
		t.Fatalf("flight dump capacity/dropped = %d/%d, want 16/>0", dump.Capacity, dump.Dropped)
	}

	var buf bytes.Buffer
	if err := c.Metrics(ctx, "prom", &buf); err != nil {
		t.Fatal(err)
	}
	var samples []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, telemetry.MetricFlightDropped) {
			samples = append(samples, line)
		}
	}
	if len(samples) != 1 {
		t.Fatalf("%s samples = %q, want exactly one", telemetry.MetricFlightDropped, samples)
	}
	if strings.Contains(samples[0], "run=") {
		t.Errorf("%s carries a run label: %q", telemetry.MetricFlightDropped, samples[0])
	}
	var v float64
	if _, err := fmt.Sscanf(samples[0], telemetry.MetricFlightDropped+" %g", &v); err != nil || v <= float64(dump.Dropped) {
		t.Errorf("%q: want the sum over all 5 runs, above the last run's %d", samples[0], dump.Dropped)
	}
}

// TestAPIPprofGating checks NewHandler's pprof switch: the profiling
// surface must 404 unless explicitly enabled (mtatd -pprof).
func TestAPIPprofGating(t *testing.T) {
	tel := telemetry.New()
	m := newTestManager(t, Config{Workers: 1, Telemetry: tel})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
	}()

	gated := httptest.NewServer(NewHandler(m, tel, false))
	defer gated.Close()
	open := httptest.NewServer(NewHandler(m, tel, true))
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
		// The API itself must work in both modes.
		resp, err = http.Get(srvURL + "/api/v1/meta")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s/api/v1/meta = %d", srvURL, resp.StatusCode)
		}
	}

	// Client.Profile end to end against the open server: the heap profile
	// must come back non-empty (a gzip'd protobuf, starting 0x1f 0x8b).
	var prof bytes.Buffer
	if err := NewClient(open.URL).Profile(context.Background(), "heap", 0, &prof); err != nil {
		t.Fatal(err)
	}
	if prof.Len() == 0 {
		t.Fatal("empty heap profile")
	}
}
