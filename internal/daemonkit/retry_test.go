package daemonkit

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// openers are the two stream opens mtatctl watch reconnects through: a
// run on mtatd and a sweep on mtatfleet.
var openers = map[string]func(addr string) error{
	"run": func(addr string) error {
		_, err := NewClient("mtatd", addr).OpenEvents(context.Background(), "/api/v1/runs/r000001/events", "")
		return err
	},
	"sweep": func(addr string) error {
		_, err := NewClient("mtatfleet", addr).OpenEvents(context.Background(), "/api/v1/sweeps/s000001/events", "")
		return err
	},
}

// stubDaemon answers every request with code and the JSON error
// envelope, plus a Retry-After header when retryAfter is set. Code 0
// returns the address of a daemon that is down.
func stubDaemon(t *testing.T, code int, retryAfter string) string {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		fmt.Fprintf(w, `{"error": %q}`, http.StatusText(code))
	}))
	if code == 0 {
		srv.Close()
	} else {
		t.Cleanup(srv.Close)
	}
	return srv.URL
}

// TestRetryRule drives real run and sweep stream opens against a daemon
// stub answering each status: a 4xx the daemon means (bad request, bad
// auth, unknown ID) is final and comes back unchanged, while timeouts,
// backpressure, 5xx and transport failures are worth retrying.
func TestRetryRule(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		code  int // 0: the daemon is down
		final bool
	}{
		{http.StatusBadRequest, true},
		{http.StatusUnauthorized, true},
		{http.StatusForbidden, true},
		{http.StatusNotFound, true},
		{http.StatusRequestTimeout, false},
		{http.StatusTooManyRequests, false},
		{http.StatusInternalServerError, false},
		{http.StatusBadGateway, false},
		{http.StatusServiceUnavailable, false},
		{0, false},
	} {
		addr := stubDaemon(t, tc.code, "")
		for stream, open := range openers {
			err := open(addr)
			if err == nil {
				t.Fatalf("%s stream, HTTP %d: open succeeded", stream, tc.code)
			}
			var r Retry
			_, final := r.Check(ctx, err)
			switch {
			case tc.final && final != err:
				t.Errorf("%s stream, HTTP %d (%v): final = %v, want the error unchanged",
					stream, tc.code, err, final)
			case !tc.final && final != nil:
				t.Errorf("%s stream, HTTP %d (%v): final = %v, want a retry", stream, tc.code, err, final)
			}
		}
	}
	var r Retry
	if wait, final := r.Check(ctx, nil); wait != 0 || final != nil {
		t.Errorf("success: wait %s, final %v; want 0, nil", wait, final)
	}
}

// TestRetryBackpressureResetsOutage: a 429 carrying Retry-After hands
// the hint back and restarts the outage clock, so an outage before it
// never counts against the budget after it.
func TestRetryBackpressureResetsOutage(t *testing.T) {
	ctx := context.Background()
	down := openers["run"](stubDaemon(t, 0, ""))
	busy := openers["run"](stubDaemon(t, http.StatusTooManyRequests, "7"))

	r := Retry{MaxOutage: 10 * time.Millisecond}
	if _, final := r.Check(ctx, down); final != nil {
		t.Fatalf("first transport error: %v", final)
	}
	time.Sleep(20 * time.Millisecond)
	wait, final := r.Check(ctx, busy)
	if final != nil || wait != 7*time.Second {
		t.Fatalf("429 with Retry-After 7: wait %s, final %v; want 7s, nil", wait, final)
	}
	if _, final := r.Check(ctx, down); final != nil {
		t.Fatalf("transport error right after a 429 spent the budget: %v", final)
	}
}

// TestRetryOutageBudget: a transport error that outlasts MaxOutage is
// final, as an "unreachable" error that still wraps the last failure.
func TestRetryOutageBudget(t *testing.T) {
	ctx := context.Background()
	down := openers["sweep"](stubDaemon(t, 0, ""))

	r := Retry{MaxOutage: 10 * time.Millisecond}
	if _, final := r.Check(ctx, down); final != nil {
		t.Fatalf("first transport error: %v", final)
	}
	time.Sleep(20 * time.Millisecond)
	_, final := r.Check(ctx, down)
	if final == nil || !strings.Contains(final.Error(), "unreachable for 10ms") || !errors.Is(final, down) {
		t.Fatalf("past the budget: final = %v, want an unreachable error wrapping %v", final, down)
	}

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, final := (&Retry{}).Check(cctx, down); !errors.Is(final, context.Canceled) {
		t.Fatalf("cancelled context: final = %v, want context.Canceled", final)
	}
}
