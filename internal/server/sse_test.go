package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/tieredmem/mtat/internal/telemetry"
)

// readBusEvents drains frames from an SSE stream until want bus events
// arrived or the predicate stops the read. Control frames are skipped;
// each bus event's wire id feeds the resume cursor.
func readBusEvents(t *testing.T, st *telemetry.SSEStream, want int,
	stop func(ev telemetry.BusEvent) bool) (evs []telemetry.BusEvent, lastID string) {
	t.Helper()
	for {
		frame, err := st.Next()
		if err != nil {
			t.Fatalf("stream ended early after %d events: %v", len(evs), err)
		}
		switch frame.Event {
		case telemetry.EvStreamHello, telemetry.EvStreamReset:
			continue
		case telemetry.EvStreamGap:
			t.Fatalf("unexpected gap frame: %s", frame.Data)
		}
		var ev telemetry.BusEvent
		if err := json.Unmarshal(frame.Data, &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", frame.Data, err)
		}
		evs = append(evs, ev)
		lastID = frame.ID
		if stop != nil && stop(ev) {
			return evs, lastID
		}
		if want > 0 && len(evs) >= want {
			return evs, lastID
		}
	}
}

// TestSSEResumeAcrossDisconnect is the tentpole's durability test: kill
// the SSE connection mid-run, reconnect with Last-Event-ID, and demand
// the merged sequence is gap-free and duplicate-free through the
// terminal run.state event.
func TestSSEResumeAcrossDisconnect(t *testing.T) {
	tel := telemetry.New()
	m := newTestManager(t, Config{
		Workers:   1,
		QueueCap:  8,
		Telemetry: tel,
		// longSpec's 10ms tick floods flight events; a deep ring keeps
		// the disconnect window fully covered so the resume is gap-free.
		Bus:           telemetry.NewEventBus(telemetry.BusConfig{RingCapacity: 1 << 16}),
		StatsInterval: 20 * time.Millisecond,
	})
	defer shutdownOrFail(t, m, 10*time.Second)
	srv := httptest.NewServer(NewHandler(m, tel, true))
	defer srv.Close()
	c := NewClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	st, err := c.Submit(ctx, longSpec(1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, m, st.ID, StateRunning)

	// First connection: consume a handful of live events, then kill the
	// connection mid-run (client-side close ≈ dropped proxy).
	s1, err := c.StreamEvents(ctx, st.ID, "")
	if err != nil {
		t.Fatalf("StreamEvents: %v", err)
	}
	first, lastID := readBusEvents(t, s1, 5, nil)
	s1.Close()
	if lastID == "" {
		t.Fatal("no event id after 5 events")
	}

	// Let the run produce more events while nobody is connected — the
	// topic ring must retain them for the resume.
	time.Sleep(100 * time.Millisecond)

	// Reconnect with the cursor, cancel the run, and read through to the
	// terminal run.state.
	s2, err := c.StreamEvents(ctx, st.ID, lastID)
	if err != nil {
		t.Fatalf("StreamEvents(resume): %v", err)
	}
	defer s2.Close()
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	rest, _ := readBusEvents(t, s2, 0, func(ev telemetry.BusEvent) bool {
		if ev.Kind != telemetry.EvBusRunState {
			return false
		}
		var rs RunStatus
		raw, _ := json.Marshal(ev.Data)
		return json.Unmarshal(raw, &rs) == nil && rs.State.Terminal()
	})

	// Merged stream: bus IDs strictly consecutive — no gaps, no dupes.
	merged := append(first, rest...)
	if len(merged) < 6 {
		t.Fatalf("merged only %d events", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].ID != merged[i-1].ID+1 {
			t.Fatalf("merged sequence broken at %d: id %d then %d",
				i, merged[i-1].ID, merged[i].ID)
		}
	}

	// The stream carried all three kinds: lifecycle, stats, flight.
	kinds := map[string]bool{}
	for _, ev := range merged {
		kinds[ev.Kind] = true
	}
	if !kinds[telemetry.EvBusRunState] || !kinds[telemetry.EvBusRunStats] ||
		!kinds[telemetry.EvBusFlight] {
		t.Fatalf("missing event kinds in %v", kinds)
	}
}

// TestSSETerminalRunServesJSONContract: the /events endpoint keeps the
// JSONL trace contract for non-SSE clients.
func TestSSEContentNegotiation(t *testing.T) {
	tel := telemetry.New()
	m := newTestManager(t, Config{Workers: 1, QueueCap: 8, Telemetry: tel})
	defer shutdownOrFail(t, m, 10*time.Second)
	srv := httptest.NewServer(NewHandler(m, tel, true))
	defer srv.Close()
	c := NewClient(srv.URL)
	ctx := context.Background()

	st, err := c.Submit(ctx, shortSpec(1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := c.Wait(ctx, st.ID, 10*time.Millisecond); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	// Plain GET (no Accept: text/event-stream) still streams the trace.
	resp, err := srv.Client().Get(srv.URL + "/api/v1/runs/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct == telemetry.SSEContentType {
		t.Fatalf("plain GET negotiated SSE (Content-Type %q)", ct)
	}

	// SSE on an unknown run 404s instead of hanging a stream open.
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/api/v1/runs/nope/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", telemetry.SSEContentType)
	resp404, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Fatalf("SSE on unknown run = %d, want 404", resp404.StatusCode)
	}
}
