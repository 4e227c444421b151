package hypothesis

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/tieredmem/mtat/internal/server"
)

// fullQueueDaemon stubs mtatd's submit route: POST /api/v1/runs answers
// 429 "queue full" (with Retry-After when retryAfter is set) until busy
// has passed since the first call, then 202 with a queued run. calls
// returns the arrival time of every submission so far.
func fullQueueDaemon(t *testing.T, busy time.Duration, retryAfter string) (addr string, calls func() []time.Time) {
	var (
		mu    sync.Mutex
		times []time.Time
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/api/v1/runs" {
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		times = append(times, time.Now())
		full := time.Since(times[0]) < busy
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		if full {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error": "queue full"}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(server.RunStatus{ID: "r000001", State: server.StateQueued})
	}))
	t.Cleanup(srv.Close)
	return srv.URL, func() []time.Time {
		mu.Lock()
		defer mu.Unlock()
		return append([]time.Time(nil), times...)
	}
}

// TestNodeBackendSubmitRidesOutFullQueue: a daemon that answers 429 for
// three times the outage budget is busy, not down, so Submit must keep
// going until the queue frees up. Charging 429 to the outage clock
// failed this with "submit unreachable for 200ms".
func TestNodeBackendSubmitRidesOutFullQueue(t *testing.T) {
	addr, calls := fullQueueDaemon(t, 600*time.Millisecond, "")
	b := &NodeBackend{Client: server.NewClient(addr), MaxOutage: 200 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := b.Submit(ctx, fastSpec().BaselineSpec())
	if err != nil {
		t.Fatalf("Submit against a full queue: %v (after %d calls)", err, len(calls()))
	}
	if st.ID != "r000001" {
		t.Fatalf("status = %+v", st)
	}
	if n := len(calls()); n < 2 {
		t.Errorf("daemon saw %d submissions, want >= 2 (retries through the 429s)", n)
	}
}

// TestNodeBackendSubmitHonoursRetryAfter: a 429 carrying Retry-After: 1
// holds the next submission back for about a second, far longer than
// the backoff's own first delay.
func TestNodeBackendSubmitHonoursRetryAfter(t *testing.T) {
	addr, calls := fullQueueDaemon(t, 10*time.Millisecond, "1")
	b := &NodeBackend{Client: server.NewClient(addr), MaxOutage: 200 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := b.Submit(ctx, fastSpec().BaselineSpec()); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	times := calls()
	if len(times) < 2 {
		t.Fatalf("daemon saw %d submissions, want >= 2", len(times))
	}
	if gap := times[1].Sub(times[0]); gap < 950*time.Millisecond {
		t.Errorf("second submission %s after the first; Retry-After: 1 was not honoured", gap)
	}
}
