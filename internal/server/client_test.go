package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tieredmem/mtat/internal/daemonkit"
)

// TestClientStatus round-trips the load signal through the real API.
func TestClientStatus(t *testing.T) {
	c, m := newTestAPI(t, Config{Workers: 3, QueueCap: 7})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 3 || st.QueueCap != 7 || st.ActiveRuns != 0 || st.Draining {
		t.Fatalf("idle stats = %+v", st)
	}

	sub, err := c.Submit(ctx, shortSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, sub.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st, err = c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.RetainedResults != 1 || st.TotalRuns != 1 {
		t.Fatalf("post-run stats = %+v", st)
	}
	if g := m.cfg.Telemetry.Metrics().Gauge("server_results_retained").Value(); g != 1 {
		t.Errorf("server_results_retained = %v, want 1", g)
	}
}

// TestClient429Backpressure asserts a full queue surfaces as *daemonkit.APIError
// with StatusTooManyRequests and a Retry-After header on the wire.
func TestClient429Backpressure(t *testing.T) {
	c, m := newTestAPI(t, Config{Workers: 1, QueueCap: 1})
	ctx := context.Background()

	running, err := c.Submit(ctx, longSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, StateRunning)
	queued, err := c.Submit(ctx, longSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(ctx, longSpec(3))
	var apiErr *daemonkit.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit err = %v, want 429 APIError", err)
	}
	if !strings.Contains(apiErr.Message, "queue full") {
		t.Errorf("429 message %q does not explain backpressure", apiErr.Message)
	}
	for _, id := range []string{queued.ID, running.ID} {
		if _, err := c.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClientConnectionRefused exercises every client verb against a
// port nobody listens on.
func TestClientConnectionRefused(t *testing.T) {
	// Bind-then-close yields a port that is almost certainly refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c := NewClient(addr)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	probes := map[string]func() error{
		"submit": func() error { _, err := c.Submit(ctx, shortSpec(1)); return err },
		"run":    func() error { _, err := c.Run(ctx, "r000001"); return err },
		"runs":   func() error { _, err := c.Runs(ctx); return err },
		"status": func() error { _, err := c.Status(ctx); return err },
		"wait":   func() error { _, err := c.Wait(ctx, "r000001", time.Millisecond); return err },
	}
	for name, probe := range probes {
		err := probe()
		if err == nil {
			t.Fatalf("%s against dead addr succeeded", name)
		}
		var apiErr *daemonkit.APIError
		if errors.As(err, &apiErr) {
			t.Errorf("%s: connection error decoded as APIError %v", name, apiErr)
		}
	}
}

// TestClientMalformedBody asserts non-JSON and truncated bodies from a
// misbehaving server surface as errors, not silent zero values.
func TestClientMalformedBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id": "r0000`)) // truncated mid-object
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	ctx := context.Background()
	if _, err := c.Run(ctx, "r000001"); err == nil {
		t.Error("truncated JSON body decoded without error")
	}

	// Non-JSON error body: the raw text must survive into the APIError.
	srvErr := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom: not json", http.StatusBadGateway)
	}))
	defer srvErr.Close()
	cErr := NewClient(srvErr.URL)
	_, err := cErr.Run(ctx, "r000001")
	var apiErr *daemonkit.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadGateway {
		t.Fatalf("err = %v, want 502 APIError", err)
	}
	if !strings.Contains(apiErr.Message, "boom") {
		t.Errorf("APIError lost the raw body: %q", apiErr.Message)
	}
}

// TestClientContextCancelMidRequest cancels the context while the
// server is deliberately stalling the response.
func TestClientContextCancelMidRequest(t *testing.T) {
	var inflight atomic.Int32
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inflight.Add(1)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)

	c := NewClient(srv.URL)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { _, err := c.Run(ctx, "r000001"); done <- err }()
	deadline := time.Now().Add(10 * time.Second)
	for inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-request cancel err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client did not return after context cancellation")
	}
}
