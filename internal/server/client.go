package server

import (
	"context"
	"errors"
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

// DefaultMaxOutage is WaitDurable's tolerance for consecutive transport
// failures when the caller passes maxOutage <= 0 — generous enough to
// ride out a daemon SIGKILL, journal replay, and restart.
const DefaultMaxOutage = 2 * time.Minute

// WaitDurable is Wait for callers that must survive a daemon restart:
// transport errors (connection refused while mtatd is down, resets while
// it bounces) are retried with the same backoff for up to maxOutage of
// consecutive failure before giving up, instead of failing the wait on
// the first one. A 429 is backpressure from a live daemon, not an
// outage: it never charges the outage window, and a Retry-After header
// (quota and rate-limit rejections carry one) stretches the sleep to
// the server's hint. API errors other than 429/503 still fail
// immediately — a 404 after replay means the run is truly gone, and
// retrying cannot fix a 400. The experiment harness leans on this:
// mtatd journals accepted runs before acknowledging them, so a run that
// was submitted is pollable again as soon as the restarted daemon
// finishes replay.
func (c *Client) WaitDurable(ctx context.Context, id string, poll, maxOutage time.Duration) (RunStatus, error) {
	if maxOutage <= 0 {
		maxOutage = DefaultMaxOutage
	}
	var outageStart time.Time
	return daemonkit.Poll(ctx, poll, c.runFetcher(id), RunStatus.terminal,
		func(err error) (time.Duration, error) {
			var apiErr *daemonkit.APIError
			isAPI := errors.As(err, &apiErr)
			switch {
			case err == nil:
				outageStart = time.Time{}
				return 0, nil
			case ctx.Err() != nil:
				return 0, ctx.Err()
			case isAPI && apiErr.StatusCode == http.StatusTooManyRequests:
				// The daemon answered — it is up, just shedding load. Reset
				// the outage clock (backpressure must not burn the restart
				// budget) and honor its Retry-After if present.
				outageStart = time.Time{}
				return apiErr.RetryAfter, nil
			case isAPI && apiErr.StatusCode != http.StatusServiceUnavailable:
				// Definitive: a 404 after replay means the run is gone,
				// and retrying cannot fix a 400.
				return 0, err
			case outageStart.IsZero():
				outageStart = time.Now()
			case time.Since(outageStart) > maxOutage:
				return 0, fmt.Errorf("mtatd: unreachable for %s waiting on %s: %w", maxOutage, id, err)
			}
			return 0, nil
		})
}
