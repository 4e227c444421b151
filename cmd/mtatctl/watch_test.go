package main

import (
	"context"
	"io"
	"strings"
	"testing"

	"github.com/tieredmem/mtat/internal/telemetry"
)

// TestWatchResetClearsDedup: a restarted daemon numbers its bus events
// from 1 again, so after stream.reset an event whose ID the old epoch
// already used is new and must reach the handler — otherwise a watch
// that rode out a restart never sees the run's terminal state.
func TestWatchResetClearsDedup(t *testing.T) {
	body := strings.Join([]string{
		"id: a-1\nevent: run.state\ndata: {\"id\":1,\"kind\":\"run.state\"}\n",
		"id: a-1\nevent: run.state\ndata: {\"id\":1,\"kind\":\"run.state\"}\n",
		"event: stream.reset\ndata: {}\n",
		"id: b-1\nevent: run.state\ndata: {\"id\":1,\"kind\":\"run.state\"}\n",
	}, "\n") + "\n"
	w := &watcher{out: io.Discard, seen: make(map[uint64]bool)}
	handled := 0
	done, err := w.consume(context.Background(),
		telemetry.NewSSEStream(io.NopCloser(strings.NewReader(body))),
		func(telemetry.BusEvent) (bool, error) { handled++; return false, nil })
	if done || err != nil {
		t.Fatalf("consume = %v, %v; want the stream to end for a reconnect", done, err)
	}
	if handled != 2 {
		t.Fatalf("handler saw %d events, want 2: the duplicate dropped, the new epoch's ID 1 kept", handled)
	}
	if w.lastEventID != "b-1" {
		t.Errorf("resume cursor = %q, want b-1", w.lastEventID)
	}
}
