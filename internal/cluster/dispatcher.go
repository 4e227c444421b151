package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/tieredmem/mtat/internal/backoff"
	"github.com/tieredmem/mtat/internal/daemonkit"
	"github.com/tieredmem/mtat/internal/server"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// DefaultMaxNodeAttempts bounds how many distinct nodes one run is
// tried on before the dispatcher gives up.
const DefaultMaxNodeAttempts = 3

// DispatcherConfig tunes run placement and retry.
type DispatcherConfig struct {
	// Strategy picks the node for each run (nil selects LeastLoaded).
	Strategy Strategy
	// Retry paces retries — both waiting for a free slot and re-
	// dispatching after a node failure. The zero value selects the
	// backoff package defaults (50ms base, 5s cap). NewDispatcher
	// upgrades the policy to full jitter unless NoJitter is set: many
	// cells back off against the same saturated node at once, and
	// uniform-random delays de-correlate their retries far better than
	// the default ±20% band.
	Retry backoff.Policy
	// MaxNodeAttempts bounds distinct-node attempts per run (<= 0
	// selects DefaultMaxNodeAttempts).
	MaxNodeAttempts int
	// PollMax caps the remote run-status polling interval (<= 0 selects
	// daemonkit.DefaultPollInterval).
	PollMax time.Duration
	// Telemetry is the fleet-level sink for dispatch metrics and retry
	// events. Nil disables them.
	Telemetry *telemetry.Telemetry
}

// Dispatcher places individual runs on fleet nodes. Semantics:
//
//   - At-most-once per node: once a node accepts a run, that run is
//     never submitted to the same node again.
//   - At-least-once overall: if an accepted node stops answering, the
//     run is re-dispatched to a fresh node. The lost node may still
//     finish its copy — callers that mutate external state must
//     tolerate duplicate execution.
//   - Submission rejections (queue-full 429, draining 503, connection
//     errors) do not burn the node — nothing was accepted, so retrying
//     it later is safe and duplicate-free.
type Dispatcher struct {
	reg *Registry
	cfg DispatcherConfig
	tel *telemetry.Telemetry

	hDispatch            *telemetry.Histogram
	mDispatched, mFailed *telemetry.Counter
	mRetries             *telemetry.Counter
}

// NewDispatcher builds a dispatcher over the registry.
func NewDispatcher(reg *Registry, cfg DispatcherConfig) *Dispatcher {
	if cfg.Strategy == nil {
		cfg.Strategy = LeastLoaded{}
	}
	if cfg.MaxNodeAttempts <= 0 {
		cfg.MaxNodeAttempts = DefaultMaxNodeAttempts
	}
	if cfg.PollMax <= 0 {
		cfg.PollMax = daemonkit.DefaultPollInterval
	}
	if !cfg.Retry.NoJitter {
		cfg.Retry.FullJitter = true
	}
	d := &Dispatcher{reg: reg, cfg: cfg, tel: cfg.Telemetry}
	m := d.tel.Metrics()
	d.hDispatch = m.Histogram("fleet_dispatch_latency_s")
	d.mDispatched = m.Counter("fleet_dispatched_total")
	d.mFailed = m.Counter("fleet_dispatch_failed_total")
	d.mRetries = m.Counter("fleet_dispatch_retries_total")
	return d
}

// DispatchResult reports where and how a run finally completed.
type DispatchResult struct {
	// Status is the terminal status from the node that finished the run.
	Status server.RunStatus
	// Node is that node's registry name.
	Node string
	// NodeAttempts counts distinct nodes that accepted the run (> 1
	// means at least one failover happened).
	NodeAttempts int
}

// Do runs one spec somewhere in the fleet and blocks until it reaches a
// terminal state, retrying across nodes per the dispatcher semantics.
// It fails with ErrNoNodes once every registered node has been burned,
// with the remote error when the run itself fails, and with ctx's error
// on cancellation.
func (d *Dispatcher) Do(ctx context.Context, spec sim.RunSpec) (DispatchResult, error) {
	return d.DoAs(ctx, spec, "")
}

// DoAs is Do with tenant attribution: a non-empty onBehalfOf rides the
// X-Mtat-Tenant header on the node submission (and status polls), so
// the node charges and meters the sweep's originating tenant rather
// than the fleet's node token. The node must recognize that token as an
// admin tenant for the attribution to be accepted.
func (d *Dispatcher) DoAs(ctx context.Context, spec sim.RunSpec, onBehalfOf string) (DispatchResult, error) {
	burned := make(map[string]bool)
	res := DispatchResult{}
	for trial := 0; ; trial++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		h, ok, viable := d.reg.acquire(d.cfg.Strategy, burned)
		if !ok {
			if !viable {
				d.mFailed.Inc()
				return res, fmt.Errorf("%w for run after %d node attempts",
					ErrNoNodes, res.NodeAttempts)
			}
			// Nodes exist but none is eligible right now (all marked
			// down or at their in-flight bound) — back off and re-pick.
			if err := d.cfg.Retry.Sleep(ctx, trial); err != nil {
				return res, err
			}
			continue
		}

		// Attribution rides a shallow client copy: the node handle (and
		// its in-flight slot accounting) is shared across tenants, but
		// each request carries this cell's on-behalf-of header.
		cl := h.client
		if onBehalfOf != "" {
			c2 := *cl
			c2.OnBehalfOf = onBehalfOf
			cl = &c2
		}

		// One node.run span per accepted attempt; the submit and the
		// status polls carry its traceparent, so the node's server spans
		// and run.execute hang under it in the merged tree.
		nctx := ctx
		var span *telemetry.ActiveSpan
		if telemetry.SpanContextFrom(ctx).Valid() {
			nctx, span = d.tel.Spans().StartSpan(ctx, "node.run",
				telemetry.SA("node", h.name))
		}
		start := time.Now()
		st, err := cl.Submit(nctx, spec)
		d.hDispatch.Observe(time.Since(start).Seconds())
		if err != nil {
			span.End(err)
			h.release()
			if ctx.Err() != nil {
				return res, ctx.Err()
			}
			if isSpecRejection(err) {
				// The spec itself is invalid — no node will accept it.
				d.mFailed.Inc()
				return res, err
			}
			// Backpressure or connectivity: the node never accepted the
			// run, so it is not burned; back off and re-place.
			d.mRetries.Inc()
			d.tel.Tracer().EmitMsg(d.reg.now(), "fleet.dispatch.retry", telemetry.WLNone, h.name)
			if err := d.cfg.Retry.Sleep(ctx, trial); err != nil {
				return res, err
			}
			continue
		}

		// Accepted: at-most-once on this node from here on.
		burned[h.name] = true
		res.Node = h.name
		res.NodeAttempts++
		d.mDispatched.Inc()
		d.reg.noteDispatched(h.name)
		span.SetAttr("run", st.ID)

		final, err := cl.Wait(nctx, st.ID, d.cfg.PollMax)
		span.End(err)
		h.release()
		if err == nil {
			res.Status = final
			switch final.State {
			case server.StateDone:
				return res, nil
			case server.StateCancelled:
				return res, fmt.Errorf("cluster: run %s cancelled on node %s", final.ID, h.name)
			default: // StateFailed
				d.mFailed.Inc()
				return res, fmt.Errorf("cluster: run %s failed on node %s: %s",
					final.ID, h.name, final.Error)
			}
		}
		if ctx.Err() != nil {
			return res, ctx.Err()
		}

		// The node accepted the run but stopped answering: presume it
		// dead, mark it down ahead of the prober, and fail over. Its
		// copy of the run may still complete — the at-least-once
		// caveat.
		d.reg.noteFailed(h.name)
		d.reg.MarkDown(h.name, fmt.Sprintf("dispatch: %v", err))
		d.mRetries.Inc()
		d.tel.Tracer().EmitMsg(d.reg.now(), "fleet.dispatch.failover", telemetry.WLNone, h.name)
		if res.NodeAttempts >= d.cfg.MaxNodeAttempts {
			d.mFailed.Inc()
			return res, fmt.Errorf("cluster: run lost on %d nodes (last %s: %v)",
				res.NodeAttempts, h.name, err)
		}
		if err := d.cfg.Retry.Sleep(ctx, trial); err != nil {
			return res, err
		}
	}
}

// isSpecRejection reports whether a submit error is a 400 — the spec is
// invalid everywhere, so retrying on other nodes is pointless. It is the
// one status check outside daemonkit.Retry, on purpose: the dispatcher
// re-places a cell on another node rather than waiting one node out.
func isSpecRejection(err error) bool {
	var apiErr *daemonkit.APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusBadRequest
}
