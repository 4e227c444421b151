package cluster

import (
	"context"
	"io"
	"net/http"
	"time"

	"github.com/tieredmem/mtat/internal/daemonkit"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// Client drives the mtatfleet control plane over HTTP — the library
// behind mtatctl's sweep subcommands, usable directly by tests and
// tooling. The embedded daemonkit.Client carries the transport, auth,
// and the routes mtatfleet shares with mtatd (traces, metrics,
// readiness, tenants).
type Client struct {
	daemonkit.Client
}

// NewClient returns a client for addr, which may be a bare host:port or
// a full http:// URL.
func NewClient(addr string) *Client {
	return &Client{*daemonkit.NewClient("mtatfleet", addr)}
}

// SubmitSweep submits a sweep spec and returns the running sweep's
// status.
func (c *Client) SubmitSweep(ctx context.Context, spec sim.SweepSpec) (SweepStatus, error) {
	var st SweepStatus
	err := c.Do(ctx, http.MethodPost, "/api/v1/sweeps", spec, &st)
	return st, err
}

// Sweep fetches one sweep's status.
func (c *Client) Sweep(ctx context.Context, id string) (SweepStatus, error) {
	var st SweepStatus
	err := c.Do(ctx, http.MethodGet, "/api/v1/sweeps/"+id, nil, &st)
	return st, err
}

// Sweeps lists every retained sweep.
func (c *Client) Sweeps(ctx context.Context) ([]SweepStatus, error) {
	var out []SweepStatus
	err := c.Do(ctx, http.MethodGet, "/api/v1/sweeps", nil, &out)
	return out, err
}

// CancelSweep stops a running sweep.
func (c *Client) CancelSweep(ctx context.Context, id string) (SweepStatus, error) {
	var st SweepStatus
	err := c.Do(ctx, http.MethodDelete, "/api/v1/sweeps/"+id, nil, &st)
	return st, err
}

// Results fetches the sweep's settled cell summaries.
func (c *Client) Results(ctx context.Context, id string) ([]CellSummary, error) {
	var out []CellSummary
	err := c.Do(ctx, http.MethodGet, "/api/v1/sweeps/"+id+"/results", nil, &out)
	return out, err
}

// ResultsTo streams the sweep's results in the given export format
// (json, jsonl, or csv) into w.
func (c *Client) ResultsTo(ctx context.Context, id, format string, w io.Writer) error {
	return c.Stream(ctx, "/api/v1/sweeps/"+id+"/results?format="+format, w)
}

// Status fetches the fleet's stats (node pool size, sweep counts, and
// startup-recovery counters).
func (c *Client) Status(ctx context.Context) (FleetStats, error) {
	var st FleetStats
	err := c.Do(ctx, http.MethodGet, "/api/v1/status", nil, &st)
	return st, err
}

// Nodes lists the fleet's node pool.
func (c *Client) Nodes(ctx context.Context) ([]NodeInfo, error) {
	var out []NodeInfo
	err := c.Do(ctx, http.MethodGet, "/api/v1/nodes", nil, &out)
	return out, err
}

// AddNode registers a mtatd node with the fleet.
func (c *Client) AddNode(ctx context.Context, addr string, weight float64) (NodeInfo, error) {
	var info NodeInfo
	err := c.Do(ctx, http.MethodPost, "/api/v1/nodes", AddNodeRequest{Addr: addr, Weight: weight}, &info)
	return info, err
}

// RemoveNode deregisters a node by name or address.
func (c *Client) RemoveNode(ctx context.Context, name string) error {
	return c.Do(ctx, http.MethodDelete, "/api/v1/nodes/"+name, nil, nil)
}

// StreamEvents opens the fleet's live SSE stream — a sweep's topic when
// id is set, the tenant-scoped firehose when id is "". lastEventID
// resumes after a previous stream's cursor (sent as Last-Event-ID).
// The caller owns the returned stream and must Close it.
func (c *Client) StreamEvents(ctx context.Context, id, lastEventID string) (*telemetry.SSEStream, error) {
	path := "/api/v1/events"
	if id != "" {
		path = "/api/v1/sweeps/" + id + "/events"
	}
	return c.OpenEvents(ctx, path, lastEventID)
}

// WaitSweep polls the sweep until it reaches a terminal state or ctx is
// done; see daemonkit.Poll for the backoff (poll <= 0 selects
// daemonkit.DefaultPollInterval).
func (c *Client) WaitSweep(ctx context.Context, id string, poll time.Duration) (SweepStatus, error) {
	return daemonkit.Poll(ctx, poll,
		func(ctx context.Context) (SweepStatus, error) { return c.Sweep(ctx, id) },
		func(st SweepStatus) bool { return st.State.Terminal() }, nil)
}
