package main

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/tieredmem/mtat/internal/server"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// runSeen is what the firehose showed of one run.
type runSeen struct {
	first    time.Time        // arrival of the run's first event of any kind
	terminal time.Time        // arrival of its terminal run.state
	status   server.RunStatus // the terminal run.state payload
}

// firehose follows GET /api/v1/events for the whole run, timestamping
// each run's first event and terminal state as they arrive.
type firehose struct {
	mu     sync.Mutex
	runs   map[string]*runSeen
	gaps   uint64 // events the stream skipped (ID discontinuities + stream.gap)
	lastID uint64
	// done receives the ID of every run that reached a terminal state.
	// Its buffer lets the status reader fall behind the stream without
	// holding it up.
	done chan string
	// waiters are closed when their run's terminal state arrives.
	waiters map[string]chan struct{}

	cancel context.CancelFunc
	exited chan struct{}
}

// openFirehose subscribes and returns once the stream's hello frame has
// arrived, so no event published afterwards can be missed.
func openFirehose(ctx context.Context, url string, doneCap int) (*firehose, error) {
	sctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", telemetry.SSEContentType)
	// A private transport: the stream must not take one of the load
	// generator's connections.
	client := &http.Client{Transport: &http.Transport{}}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	sc := telemetry.NewSSEScanner(resp.Body)
	if _, err := sc.Next(); err != nil { // stream.hello
		resp.Body.Close()
		cancel()
		return nil, err
	}
	f := &firehose{
		runs:    make(map[string]*runSeen),
		done:    make(chan string, doneCap),
		waiters: make(map[string]chan struct{}),
		cancel:  cancel,
		exited:  make(chan struct{}),
	}
	go func() {
		defer close(f.exited)
		defer resp.Body.Close()
		for {
			ev, err := sc.Next()
			if err != nil {
				return
			}
			f.observe(ev, time.Now())
		}
	}()
	return f, nil
}

// observe records one frame.
func (f *firehose) observe(ev telemetry.SSEEvent, at time.Time) {
	if ev.Event == telemetry.EvStreamGap {
		var g struct {
			Missed uint64 `json:"missed"`
		}
		if json.Unmarshal(ev.Data, &g) == nil {
			f.mu.Lock()
			f.gaps += g.Missed
			f.mu.Unlock()
		}
		return
	}
	var be struct {
		ID    uint64          `json:"id"`
		Topic string          `json:"topic"`
		Data  json.RawMessage `json:"data"`
	}
	if json.Unmarshal(ev.Data, &be) != nil {
		return
	}
	id, ok := strings.CutPrefix(be.Topic, "run/")
	var st server.RunStatus
	terminal := false
	if ok && ev.Event == telemetry.EvBusRunState && json.Unmarshal(be.Data, &st) == nil {
		terminal = isTerminal(st.State)
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if f.lastID != 0 && be.ID > f.lastID+1 {
		f.gaps += be.ID - f.lastID - 1
	}
	if be.ID > f.lastID {
		f.lastID = be.ID
	}
	if !ok {
		return
	}
	r := f.runs[id]
	if r == nil {
		r = &runSeen{first: at}
		f.runs[id] = r
	}
	if terminal && r.terminal.IsZero() {
		r.terminal, r.status = at, st
		f.done <- id
		if w := f.waiters[id]; w != nil {
			close(w)
			delete(f.waiters, id)
		}
	}
}

// wait blocks until the stream has shown the run's terminal state, ctx
// is done, or timeout has passed.
func (f *firehose) wait(ctx context.Context, id string, timeout time.Duration) {
	f.mu.Lock()
	if r := f.runs[id]; r != nil && !r.terminal.IsZero() {
		f.mu.Unlock()
		return
	}
	w := make(chan struct{})
	f.waiters[id] = w
	f.mu.Unlock()

	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-w:
		return
	case <-t.C:
	case <-ctx.Done():
	}
	f.mu.Lock()
	delete(f.waiters, id)
	f.mu.Unlock()
}

func isTerminal(s server.State) bool {
	return s == server.StateDone || s == server.StateFailed || s == server.StateCancelled
}

// seen returns a copy of what the stream showed of a run.
func (f *firehose) seen(id string) (runSeen, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.runs[id]
	if !ok {
		return runSeen{}, false
	}
	return *r, true
}

// terminals counts how many of ids have reached a terminal state.
func (f *firehose) terminals(ids []string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, id := range ids {
		if r := f.runs[id]; r != nil && !r.terminal.IsZero() {
			n++
		}
	}
	return n
}

// close ends the stream, waits for the reader to exit, and closes done.
func (f *firehose) close() {
	f.cancel()
	<-f.exited
	close(f.done)
}
