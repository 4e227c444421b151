// Package daemonkit is the kit mtatd and mtatfleet share: one HTTP
// client core, one set of common routes (traces, tenants, probes,
// metrics, pprof, the SSE firehose, the JSON error envelope), one
// process bootstrap (logging, tenant loading, SIGHUP reload, graceful
// shutdown), and one journaled registry, Ledger (IDs, retention,
// replay and compaction of runs or sweeps). Each daemon adds only its
// domain routes, methods and journal records.
package daemonkit

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/tieredmem/mtat/internal/backoff"
	"github.com/tieredmem/mtat/internal/telemetry"
	"github.com/tieredmem/mtat/internal/tenant"
)

// Client is the HTTP core both daemon clients embed: transport, auth,
// the JSON error envelope, the shared observability and tenancy
// routes, and the poll-until-terminal loop. server.Client and
// cluster.Client add only their domain methods on top.
type Client struct {
	// BaseURL is the daemon's root URL (e.g. "http://127.0.0.1:7070").
	BaseURL string
	// HTTPClient overrides the transport; nil uses http.DefaultClient.
	HTTPClient *http.Client
	// Token, when set, is sent as a bearer token on every request
	// (mtatctl wires -token / $MTAT_TOKEN here; the fleet dispatcher
	// its -node-token).
	Token string
	// OnBehalfOf attributes requests to the named tenant via the
	// X-Mtat-Tenant header. The authenticated tenant must be an admin
	// (the fleet dispatcher uses this to carry each cell's originating
	// tenant to the node).
	OnBehalfOf string

	// daemon prefixes error text ("mtatd", "mtatfleet").
	daemon string
}

// NewClient returns a client for the named daemon at addr, which may be
// a bare host:port or a full http:// URL.
func NewClient(daemon, addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{BaseURL: strings.TrimRight(addr, "/"), daemon: daemon}
}

// APIError is a non-2xx response decoded from a daemon's error
// envelope.
type APIError struct {
	// Daemon names the answering daemon ("mtatd", "mtatfleet").
	Daemon     string
	StatusCode int
	Message    string
	// RetryAfter carries the response's Retry-After header (0 when
	// absent) — quota and backpressure 429s tell the client when to
	// come back.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("%s: %s (HTTP %d)", e.Daemon, e.Message, e.StatusCode)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Do issues the request and decodes a JSON response into out (skipped
// when out is nil). Non-2xx responses become *APIError.
func (c *Client) Do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.send(ctx, req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return c.decodeError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// send attaches the bearer token, on-behalf-of attribution, and the
// caller's trace context, then issues the request.
func (c *Client) send(ctx context.Context, req *http.Request) (*http.Response, error) {
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	if c.OnBehalfOf != "" {
		req.Header.Set(tenant.OnBehalfOfHeader, c.OnBehalfOf)
	}
	telemetry.Inject(ctx, req.Header)
	return c.httpClient().Do(req)
}

// get issues a GET with the given extra headers and returns the open
// 200 response; any other status becomes *APIError.
func (c *Client) get(ctx context.Context, path string, header http.Header) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := c.send(ctx, req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, c.decodeError(resp)
	}
	return resp, nil
}

func (c *Client) decodeError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	apiErr := &APIError{Daemon: c.daemon, StatusCode: resp.StatusCode,
		Message: strings.TrimSpace(string(data))}
	var env errorEnvelope
	if json.Unmarshal(data, &env) == nil && env.Error != "" {
		apiErr.Message = env.Error
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return apiErr
}

// Stream copies a GET response body into w.
func (c *Client) Stream(ctx context.Context, path string, w io.Writer) error {
	resp, err := c.get(ctx, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(w, resp.Body)
	return err
}

// OpenEvents opens the SSE stream at path. lastEventID, when non-empty,
// is sent as the Last-Event-ID resume cursor; the caller owns closing
// the returned stream and reconnecting (mtatctl watch judges each
// failed open by Retry, like every other retrying client).
func (c *Client) OpenEvents(ctx context.Context, path, lastEventID string) (*telemetry.SSEStream, error) {
	h := http.Header{"Accept": {telemetry.SSEContentType}}
	if lastEventID != "" {
		h.Set("Last-Event-ID", lastEventID)
	}
	resp, err := c.get(ctx, path, h)
	if err != nil {
		return nil, err
	}
	return telemetry.NewSSEStream(resp.Body), nil
}

// Traces fetches the spans this daemon retains for one distributed
// trace. An unknown trace is not an error — the daemon simply holds no
// spans for it — so the caller can sweep a whole fleet and merge.
func (c *Client) Traces(ctx context.Context, trace string) ([]telemetry.Span, error) {
	resp, err := c.get(ctx, "/api/v1/traces/"+trace, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return telemetry.DecodeSpansJSONL(resp.Body)
}

// Metrics streams the daemon's /metrics endpoint into w in the given
// format ("json" or "prom"; "" keeps the server default).
func (c *Client) Metrics(ctx context.Context, format string, w io.Writer) error {
	path := "/metrics"
	if format != "" {
		path += "?format=" + format
	}
	return c.Stream(ctx, path, w)
}

// Ready polls GET /readyz once; a non-200 answer (or transport error)
// comes back as an error carrying the daemon's reason.
func (c *Client) Ready(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return fmt.Errorf("%s: not ready: %s (HTTP %d)",
			c.daemon, strings.TrimSpace(string(data)), resp.StatusCode)
	}
	return nil
}

// Tenants lists every tenant's live usage snapshot (admission counters,
// queue/active occupancy, rejection totals).
func (c *Client) Tenants(ctx context.Context) ([]tenant.Usage, error) {
	var out []tenant.Usage
	err := c.Do(ctx, http.MethodGet, "/api/v1/tenants", nil, &out)
	return out, err
}

// ReloadTenants pushes a new tenant config to the daemon (admin only) —
// the client-side twin of SIGHUP on a daemon launched with -tenants.
func (c *Client) ReloadTenants(ctx context.Context, cfg tenant.Config) (tenant.ReloadResult, error) {
	var res tenant.ReloadResult
	err := c.Do(ctx, http.MethodPost, "/api/v1/config/tenants", cfg, &res)
	return res, err
}

// DefaultPollInterval caps Poll's status-polling interval.
const DefaultPollInterval = 500 * time.Millisecond

// Poll fetches a status until terminal reports true for it, ctx is
// done, or a fetch fails. Polling starts fast and backs off
// exponentially with jitter up to poll, so short jobs return promptly
// while long waits stay cheap and de-synchronized across concurrent
// waiters (the fleet dispatcher runs many). poll <= 0 selects
// DefaultPollInterval as the cap.
//
// retry, when non-nil, judges every fetch (see Retry): a final error
// ends the poll with it, and a Retry-After longer than the next backoff
// delay stretches the sleep to the server's hint. A nil retry ends the
// poll on the first failed fetch.
func Poll[T any](ctx context.Context, poll time.Duration,
	fetch func(context.Context) (T, error), terminal func(T) bool, retry *Retry,
) (T, error) {
	if poll <= 0 {
		poll = DefaultPollInterval
	}
	base := min(max(poll/8, 10*time.Millisecond), poll)
	pol := backoff.Policy{Base: base, Max: poll}
	var zero T
	for attempt := 0; ; attempt++ {
		v, ferr := fetch(ctx)
		wait, err := time.Duration(0), ferr
		if retry != nil {
			wait, err = retry.Check(ctx, ferr)
		}
		if err != nil {
			return zero, err
		}
		if ferr == nil && terminal(v) {
			return v, nil
		}
		if err := pol.SleepAtLeast(ctx, attempt, wait); err != nil {
			return v, err
		}
	}
}
