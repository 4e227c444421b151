package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/tieredmem/mtat/internal/daemonkit"
	"github.com/tieredmem/mtat/internal/flight"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// Client drives the mtatd control plane over HTTP — the library behind
// cmd/mtatctl, usable directly by tests and tooling. The embedded
// daemonkit.Client carries the transport, auth, and the routes mtatd
// shares with mtatfleet (traces, metrics, readiness, tenants).
type Client struct {
	daemonkit.Client
}

// NewClient returns a client for addr, which may be a bare host:port or a
// full http:// URL.
func NewClient(addr string) *Client {
	return &Client{*daemonkit.NewClient("mtatd", addr)}
}

// Submit enqueues a run spec and returns the queued run's status.
func (c *Client) Submit(ctx context.Context, spec sim.RunSpec) (RunStatus, error) {
	var st RunStatus
	err := c.Do(ctx, http.MethodPost, "/api/v1/runs", spec, &st)
	return st, err
}

// Run fetches one run's status.
func (c *Client) Run(ctx context.Context, id string) (RunStatus, error) {
	var st RunStatus
	err := c.Do(ctx, http.MethodGet, "/api/v1/runs/"+id, nil, &st)
	return st, err
}

// Runs lists every retained run.
func (c *Client) Runs(ctx context.Context) ([]RunStatus, error) {
	var out []RunStatus
	err := c.Do(ctx, http.MethodGet, "/api/v1/runs", nil, &out)
	return out, err
}

// Cancel stops a queued or running run.
func (c *Client) Cancel(ctx context.Context, id string) (RunStatus, error) {
	var st RunStatus
	err := c.Do(ctx, http.MethodDelete, "/api/v1/runs/"+id, nil, &st)
	return st, err
}

// Status fetches the node's load signal (queue depth, active runs,
// result-store occupancy) — what a fleet scheduler weighs for placement.
func (c *Client) Status(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.Do(ctx, http.MethodGet, "/api/v1/status", nil, &st)
	return st, err
}

// Meta fetches the service vocabulary.
func (c *Client) Meta(ctx context.Context) (Meta, error) {
	var meta Meta
	err := c.Do(ctx, http.MethodGet, "/api/v1/meta", nil, &meta)
	return meta, err
}

// Events streams the run's trace (JSONL) into w.
func (c *Client) Events(ctx context.Context, id string, w io.Writer) error {
	return c.Stream(ctx, "/api/v1/runs/"+id+"/events", w)
}

// Flight streams the run's flight-recorder dump (JSON) into w.
func (c *Client) Flight(ctx context.Context, id string, w io.Writer) error {
	return c.Stream(ctx, "/api/v1/runs/"+id+"/flight", w)
}

// FlightAfter fetches the run's flight events newer than the `after`
// trace-seq cursor (0 for all of them) — the incremental fetch behind
// `mtatctl flight -follow`.
func (c *Client) FlightAfter(ctx context.Context, id string, after uint64) (flight.Dump, error) {
	var d flight.Dump
	err := c.Do(ctx, http.MethodGet,
		"/api/v1/runs/"+id+"/flight?after="+strconv.FormatUint(after, 10), nil, &d)
	return d, err
}

// StreamEvents opens the live SSE event stream for one run (or the
// daemon-wide firehose when id is ""), resuming after lastEventID when
// it is non-empty. The caller owns closing the returned stream.
func (c *Client) StreamEvents(ctx context.Context, id, lastEventID string) (*telemetry.SSEStream, error) {
	path := "/api/v1/events"
	if id != "" {
		path = "/api/v1/runs/" + id + "/events"
	}
	return c.OpenEvents(ctx, path, lastEventID)
}

// DefaultProfileSeconds is the CPU profile duration Profile uses when
// the caller passes seconds <= 0.
const DefaultProfileSeconds = 5

// Profile streams a pprof profile from the daemon's /debug/pprof/
// surface into w: kind "cpu" samples the CPU for the given number of
// seconds (<= 0 selects DefaultProfileSeconds); "heap" and "allocs"
// snapshot instantly. The target daemon must have its profiling surface
// enabled (-pprof) or the request 404s.
func (c *Client) Profile(ctx context.Context, kind string, seconds int, w io.Writer) error {
	var path string
	switch kind {
	case "cpu":
		if seconds <= 0 {
			seconds = DefaultProfileSeconds
		}
		path = fmt.Sprintf("/debug/pprof/profile?seconds=%d", seconds)
	case "heap", "allocs":
		path = "/debug/pprof/" + kind
	default:
		return fmt.Errorf("mtatd: unknown profile kind %q (valid: cpu, heap, allocs)", kind)
	}
	return c.Stream(ctx, path, w)
}

// Wait polls the run until it reaches a terminal state or ctx is done,
// returning the final status; see daemonkit.Poll for the backoff. poll
// <= 0 selects daemonkit.DefaultPollInterval as the cap.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (RunStatus, error) {
	return daemonkit.Poll(ctx, poll, c.runFetcher(id), RunStatus.terminal, nil)
}

func (c *Client) runFetcher(id string) func(context.Context) (RunStatus, error) {
	return func(ctx context.Context) (RunStatus, error) { return c.Run(ctx, id) }
}

func (st RunStatus) terminal() bool { return st.State.Terminal() }

// WaitDurable is Wait for callers that must survive a daemon restart:
// every failed poll goes through daemonkit.Retry with maxOutage as its
// outage budget (<= 0 selects daemonkit.DefaultMaxOutage). Outages and
// backpressure are ridden out; a definitive answer such as a 404 after
// replay still fails the wait at once. The experiment harness leans on
// this: mtatd journals accepted runs before acknowledging them, so a
// run that was submitted is pollable again as soon as the restarted
// daemon finishes replay.
func (c *Client) WaitDurable(ctx context.Context, id string, poll, maxOutage time.Duration) (RunStatus, error) {
	return daemonkit.Poll(ctx, poll, c.runFetcher(id), RunStatus.terminal,
		&daemonkit.Retry{MaxOutage: maxOutage})
}
