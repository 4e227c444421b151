package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"github.com/tieredmem/mtat/internal/daemonkit"
	"github.com/tieredmem/mtat/internal/flight"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/telemetry"
	"github.com/tieredmem/mtat/internal/tenant"
	"github.com/tieredmem/mtat/internal/workload"
)

// MaxSpecBytes bounds a submitted run spec's JSON body.
const MaxSpecBytes = 1 << 20

// Meta describes the service's vocabulary — the valid names a spec may
// use. Served at GET /api/v1/meta so clients can print helpful errors
// without hardcoding the lists.
type Meta struct {
	LCWorkloads []string `json:"lc_workloads"`
	BEWorkloads []string `json:"be_workloads"`
	Policies    []string `json:"policies"`
	LoadKinds   []string `json:"load_kinds"`
	Workers     int      `json:"workers"`
}

// NewHandler builds the control-plane HTTP API around a manager:
//
//	POST   /api/v1/runs             submit a RunSpec (202; 400 invalid, 429 queue full, 503 draining)
//	GET    /api/v1/runs             list retained runs
//	GET    /api/v1/runs/{id}        one run's status and result summary
//	GET    /api/v1/runs/{id}/events the run's private trace as JSONL — or, with
//	                                Accept: text/event-stream, a live SSE feed of
//	                                lifecycle/flight/stats events (Last-Event-ID resume)
//	GET    /api/v1/runs/{id}/flight the run's flight-recorder dump (JSON; ?after=<seq>
//	                                returns only events newer than the cursor)
//	DELETE /api/v1/runs/{id}        cancel a queued or running run
//	GET    /api/v1/status           node load signal (queue depth, active runs, store occupancy)
//	GET    /api/v1/meta             valid workload/policy/load names
//
// plus the routes shared with mtatfleet (daemonkit.Handler): the SSE
// firehose, traces, tenants and config reload, the probes (/readyz
// demands replay done and queue headroom), /metrics, /trace, and
// /debug/pprof/ when pprof is set (mtatd -pprof). tel is the
// daemon-level telemetry sink. A successful tenant config reload wakes
// the fair-share queue.
func NewHandler(m *Manager, tel *telemetry.Telemetry, pprof bool) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /api/v1/runs", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, MaxSpecBytes))
		if err != nil {
			daemonkit.WriteError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
			return
		}
		spec, err := sim.ParseRunSpec(body)
		if err != nil {
			daemonkit.WriteError(w, http.StatusBadRequest, err)
			return
		}
		st, err := m.SubmitCtx(r.Context(), spec)
		var qe *tenant.QuotaError
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			daemonkit.WriteError(w, http.StatusTooManyRequests, err)
		case errors.As(err, &qe):
			// Per-tenant admission rejection: tell the client when its
			// rate bucket refills (or a generic hint for quota/cost).
			w.Header().Set("Retry-After", tenant.RetryAfterSeconds(qe.RetryAfter))
			daemonkit.WriteError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrShuttingDown):
			daemonkit.WriteError(w, http.StatusServiceUnavailable, err)
		case err != nil:
			daemonkit.WriteError(w, http.StatusBadRequest, err)
		default:
			daemonkit.WriteJSON(w, http.StatusAccepted, st)
		}
	})

	mux.HandleFunc("GET /api/v1/runs", func(w http.ResponseWriter, r *http.Request) {
		daemonkit.WriteJSON(w, http.StatusOK, m.List())
	})

	mux.HandleFunc("GET /api/v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Get(r.PathValue("id"))
		if err != nil {
			daemonkit.WriteError(w, http.StatusNotFound, err)
			return
		}
		daemonkit.WriteJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /api/v1/runs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		// Content negotiation keeps one URL for both shapes: an SSE
		// Accept header gets the live event stream (lifecycle, flight,
		// stats deltas); everything else gets the historical JSONL
		// trace dump that `mtatctl logs` and scripted consumers expect.
		if wantsSSE(r) {
			if _, err := m.Get(id); err != nil {
				daemonkit.WriteError(w, http.StatusNotFound, err)
				return
			}
			telemetry.ServeSSE(w, r, m.Bus(), runTopic(id), nil)
			m.SyncBusMetrics()
			return
		}
		tr, err := m.Events(id)
		if err != nil {
			daemonkit.WriteError(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := tr.WriteJSONL(w); err != nil {
			// Headers are gone; nothing useful left to send.
			return
		}
	})

	mux.HandleFunc("GET /api/v1/runs/{id}/flight", func(w http.ResponseWriter, r *http.Request) {
		tr, err := m.Events(r.PathValue("id"))
		if err != nil {
			daemonkit.WriteError(w, http.StatusNotFound, err)
			return
		}
		// The ?after cursor lets pollers fetch only events newer than
		// the last trace seq they saw instead of the whole ring; seqs
		// start at 1, so a missing cursor (0) serves everything.
		var after uint64
		if v := r.URL.Query().Get("after"); v != "" {
			if after, err = strconv.ParseUint(v, 10, 64); err != nil {
				daemonkit.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad after cursor %q: %w", v, err))
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = flight.View(tr, after).WriteJSON(w)
	})

	mux.HandleFunc("DELETE /api/v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			daemonkit.WriteError(w, http.StatusNotFound, err)
			return
		}
		daemonkit.WriteJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /api/v1/status", func(w http.ResponseWriter, r *http.Request) {
		daemonkit.WriteJSON(w, http.StatusOK, m.Stats())
	})

	mux.HandleFunc("GET /api/v1/meta", func(w http.ResponseWriter, r *http.Request) {
		daemonkit.WriteJSON(w, http.StatusOK, Meta{
			LCWorkloads: workload.LCNames(),
			BEWorkloads: workload.BENames(),
			Policies:    sim.PolicyNames(),
			LoadKinds:   sim.LoadKinds(),
			Workers:     m.Workers(),
		})
	})

	return daemonkit.Handler(mux, m, tel, pprof, index, m.TenantsReloaded)
}

// index is the body of GET /.
const index = "mtatd control plane\n\n" +
	"POST   /api/v1/runs\n" +
	"GET    /api/v1/runs\n" +
	"GET    /api/v1/runs/{id}\n" +
	"GET    /api/v1/runs/{id}/events  (Accept: text/event-stream for live SSE)\n" +
	"GET    /api/v1/runs/{id}/flight  (?after=<seq> cursor)\n" +
	"GET    /api/v1/events  (SSE firehose)\n" +
	"DELETE /api/v1/runs/{id}\n" +
	"GET    /api/v1/status\n" +
	"GET    /api/v1/meta\n" +
	"GET    /api/v1/traces\n" +
	"GET    /api/v1/traces/{id}\n" +
	"GET    /api/v1/tenants\n" +
	"POST   /api/v1/config/tenants  (admin)\n" +
	"GET    /healthz\n" +
	"GET    /readyz\n" +
	"GET    /metrics  (?format=prom for Prometheus text)\n" +
	"GET    /trace\n" +
	"GET    /debug/pprof/  (with -pprof)\n"

// wantsSSE reports whether the request negotiated a live event stream.
func wantsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), telemetry.SSEContentType)
}
