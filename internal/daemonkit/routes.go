package daemonkit

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"

	"github.com/tieredmem/mtat/internal/telemetry"
	"github.com/tieredmem/mtat/internal/tenant"
)

// maxConfigBytes bounds a POST /api/v1/config/tenants body.
const maxConfigBytes = 1 << 20

// Daemon is what the shared routes need from a control plane;
// server.Manager and cluster.Fleet both satisfy it.
type Daemon interface {
	// Tenants returns the daemon's tenant registry (never nil).
	Tenants() *tenant.Registry
	// Ready reports whether the daemon should receive traffic, with a
	// reason when it should not.
	Ready() (ok bool, reason string)
	// Bus returns the daemon's event bus (never nil).
	Bus() *telemetry.EventBus
	// SyncBusMetrics mirrors the bus's publish/overflow accounting into
	// the daemon's registry; called when an SSE stream ends.
	SyncBusMetrics()
}

// Handler mounts the routes both daemons serve onto mux, which already
// holds the daemon's domain routes, and wraps the result in the shared
// middleware:
//
//	GET    /api/v1/events           SSE firehose of every topic, tenant-scoped
//	GET    /api/v1/traces           retained distributed traces (summaries, NDJSON)
//	GET    /api/v1/traces/{id}      one trace's spans as JSONL
//	GET    /api/v1/tenants          every tenant's usage snapshot
//	POST   /api/v1/config/tenants   hot-reload the tenant config (admin)
//	GET    /healthz                 liveness probe
//	GET    /readyz                  readiness probe (d.Ready)
//	       /metrics, /trace         tel's snapshots (nil serves empty ones)
//	       /debug/pprof/            Go profiling, only when pprof is set
//	       /                        index (the text in index); any other
//	                                unknown path gets the 404 envelope
//
// reloaded, when non-nil, runs after every successful config reload —
// mtatd wakes its fair-share queue there. Every route passes through
// the shared instrumentation (per-route latency histograms,
// status-class counters, the in-flight gauge, a server span per request
// joined to the caller's trace, one structured request log line) and
// then tenant authentication: the telemetry middleware runs outermost
// so 401s are metered and logged like any other response.
func Handler(mux *http.ServeMux, d Daemon, tel *telemetry.Telemetry, pprof bool,
	index string, reloaded func(),
) http.Handler {
	// Firehose: every topic on this daemon, scoped to the caller's
	// tenant unless it is an admin (or the daemon runs permissive).
	mux.HandleFunc("GET /api/v1/events", func(w http.ResponseWriter, r *http.Request) {
		telemetry.ServeSSE(w, r, d.Bus(), "", tenantEventFilter(d.Tenants(), r))
		d.SyncBusMetrics()
	})

	// Distributed-trace surface: the spans this daemon retains, listed
	// and fetched per trace (mtatctl trace merges them across daemons).
	mux.HandleFunc("GET /api/v1/traces", tel.ServeTraceList)
	mux.HandleFunc("GET /api/v1/traces/{id}", tel.ServeTrace)

	// Tenancy surface: usage snapshots for every tenant, and the admin
	// hot-reload endpoint (live config push without a restart; SIGHUP on
	// the daemon re-reads the -tenants file through the same path).
	mux.HandleFunc("GET /api/v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, d.Tenants().List())
	})
	mux.HandleFunc("POST /api/v1/config/tenants", func(w http.ResponseWriter, r *http.Request) {
		t := tenant.FromContext(r.Context())
		if t == nil || !t.IsAdmin() {
			WriteError(w, http.StatusForbidden, errors.New("tenant config reload requires an admin tenant"))
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, maxConfigBytes))
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
			return
		}
		cfg, err := tenant.ParseConfig(body)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		reg := d.Tenants()
		if err := reg.Reload(cfg); err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		if reloaded != nil {
			reloaded()
		}
		WriteJSON(w, http.StatusOK, tenant.ReloadResult{
			Tenants:    reg.Count(),
			Generation: reg.Generation(),
		})
	})

	// Probes: /healthz is pure liveness; /readyz asks the daemon (journal
	// replay done, admission headroom, recovery resumed), so
	// orchestration and CI gate traffic on it.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if ok, reason := d.Ready(); !ok {
			http.Error(w, reason, http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ready\n")
	})

	// Daemon-level observability: the telemetry handler serves the
	// debug surface (/metrics and /trace snapshots, pprof under
	// /debug/pprof/ when enabled).
	th := tel.Handler()
	mux.Handle("/metrics", th)
	mux.Handle("/trace", th)
	if pprof {
		mux.Handle("/debug/", th)
	}

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			WriteError(w, http.StatusNotFound, errors.New("no such endpoint"))
			return
		}
		io.WriteString(w, index)
	})

	return telemetry.Middleware(tel, slog.Default())(tenant.Middleware(d.Tenants(), mux))
}

// tenantEventFilter scopes the firehose to the caller's own events: a
// named non-admin tenant sees only its own topics; admins — and every
// caller on a permissive daemon (no tenant config) — see everything.
func tenantEventFilter(reg *tenant.Registry, r *http.Request) func(telemetry.BusEvent) bool {
	t := tenant.FromContext(r.Context())
	if t == nil || t.IsAdmin() || reg.Count() == 0 {
		return nil
	}
	name := tenant.NameOf(t)
	return func(ev telemetry.BusEvent) bool { return ev.Tenant == name }
}

// errorEnvelope is the JSON error body every API route (and the tenant
// middleware) answers with.
type errorEnvelope struct {
	Error string `json:"error"`
}

// WriteJSON writes v as indented JSON with the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError writes err in the JSON error envelope with the given
// status.
func WriteError(w http.ResponseWriter, code int, err error) {
	msg := "unknown error"
	if err != nil {
		msg = strings.TrimSpace(err.Error())
	}
	WriteJSON(w, code, errorEnvelope{Error: msg})
}
