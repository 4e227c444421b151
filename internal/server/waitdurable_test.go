package server

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tieredmem/mtat/internal/daemonkit"
)

// TestWaitDurableRidesOutOutage: the daemon answers 503 (then drops the
// connection entirely) for a while before coming back with a terminal
// status — WaitDurable must absorb the whole outage and return it.
func TestWaitDurableRidesOutOutage(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		switch {
		case n <= 2:
			http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
		case n <= 4:
			// Kill the TCP connection mid-response: a transport error,
			// like polling a daemon that just died.
			if hj, ok := w.(http.Hijacker); ok {
				conn, _, err := hj.Hijack()
				if err == nil {
					conn.Close()
					return
				}
			}
			http.Error(w, "boom", http.StatusBadGateway)
		default:
			json.NewEncoder(w).Encode(RunStatus{ID: "r000001", State: StateDone})
		}
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := c.WaitDurable(ctx, "r000001", 10*time.Millisecond, 10*time.Second)
	if err != nil {
		t.Fatalf("WaitDurable: %v (after %d calls)", err, calls.Load())
	}
	if st.State != StateDone || st.ID != "r000001" {
		t.Fatalf("status = %+v", st)
	}
	if calls.Load() < 5 {
		t.Errorf("server saw %d calls, want >= 5 (retries through the outage)", calls.Load())
	}
}

// TestWaitDurableOutageBudget: a daemon that never comes back exhausts
// maxOutage and fails instead of spinning forever.
func TestWaitDurableOutageBudget(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c := NewClient(addr)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	_, err = c.WaitDurable(ctx, "r000001", 5*time.Millisecond, 100*time.Millisecond)
	if err == nil {
		t.Fatal("WaitDurable against a dead daemon succeeded")
	}
	if ctx.Err() != nil {
		t.Fatalf("outage budget never fired; context expired instead: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("gave up after %s, before the 100ms outage budget", elapsed)
	}
}

// TestWaitDurableBackpressureIsNotOutage: a daemon answering 429 is
// alive, so quota rejections must never burn the outage window. The
// server here rejects with 429 + Retry-After for well past the (tiny)
// maxOutage before finally answering — the old behavior (429 charged as
// outage) fails this immediately.
func TestWaitDurableBackpressureIsNotOutage(t *testing.T) {
	const rejections = 3
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= rejections {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"tenant over quota"}`, http.StatusTooManyRequests)
			return
		}
		json.NewEncoder(w).Encode(RunStatus{ID: "r000001", State: StateDone})
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// maxOutage of 50ms while each 429 asks for a 1s pause: the total
	// backpressure span (~3s) dwarfs the outage budget, so success proves
	// 429s reset the clock rather than accruing against it.
	start := time.Now()
	st, err := c.WaitDurable(ctx, "r000001", 10*time.Millisecond, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitDurable treated backpressure as an outage: %v (after %d calls)", err, calls.Load())
	}
	if st.State != StateDone {
		t.Fatalf("status = %+v", st)
	}
	// Retry-After must actually be honored: 8 rejections × 1s floor.
	if elapsed := time.Since(start); elapsed < rejections*time.Second {
		t.Errorf("finished in %s; Retry-After of 1s × %d rejections was not honored", elapsed, rejections)
	}
}

// TestWaitDurableDefinitiveErrors: a 404 is not an outage — the run is
// gone and retrying cannot bring it back.
func TestWaitDurableDefinitiveErrors(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"run not found"}`, http.StatusNotFound)
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	ctx := context.Background()
	_, err := c.WaitDurable(ctx, "r999999", 5*time.Millisecond, time.Minute)
	var apiErr *daemonkit.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("err = %v, want 404 APIError", err)
	}
	if calls.Load() != 1 {
		t.Errorf("404 was retried %d times, want exactly 1 call", calls.Load())
	}
}
