package server

import (
	"time"

	"github.com/tieredmem/mtat/internal/flight"
	"github.com/tieredmem/mtat/internal/telemetry"
	"github.com/tieredmem/mtat/internal/tenant"
)

// Live event publishing: the manager forwards run lifecycle
// transitions, the flight kinds of each run's trace, and periodic
// mid-run stats deltas onto its EventBus, where the SSE endpoints in
// api.go stream them to `mtatctl watch`. Every publish is gated on Bus.Active(topic),
// so a daemon nobody is watching pays one atomic load per potential
// event and allocates nothing.

// DefaultStatsInterval is the mid-run stats sampling period selected by
// Config.StatsInterval <= 0.
const DefaultStatsInterval = time.Second

// runTopic names a run's bus topic.
func runTopic(id string) string { return "run/" + id }

// RunStatsDelta is the periodic mid-run sample streamed as a
// `run.stats` event: cumulative counters from the run's private
// registry plus the deltas since the previous sample, so a watcher can
// render rates without keeping history. Promotion/demotion pages come
// from the PP-E counters (zero for policies that do not migrate
// through PP-E).
type RunStatsDelta struct {
	RunID string `json:"run_id"`
	// ElapsedS is wall time since the run started.
	ElapsedS float64 `json:"elapsed_s"`
	// IntervalS is wall time covered by the d_* deltas.
	IntervalS float64 `json:"interval_s"`

	Ticks       int64 `json:"ticks"`
	DTicks      int64 `json:"d_ticks"`
	Violations  int64 `json:"violations"`
	DViolations int64 `json:"d_violations"`
	Promoted    int64 `json:"promoted_pages"`
	DPromoted   int64 `json:"d_promoted_pages"`
	Demoted     int64 `json:"demoted_pages"`
	DDemoted    int64 `json:"d_demoted_pages"`

	// P99S is the current windowed LC p99 (seconds); Load the offered
	// load fraction; FMemRatio the LC fast-memory ratio.
	P99S      float64 `json:"lc_p99_s"`
	Load      float64 `json:"load"`
	FMemRatio float64 `json:"fmem_ratio"`
}

// Bus returns the manager's event bus (never nil after NewManager).
func (m *Manager) Bus() *telemetry.EventBus { return m.bus }

// publishRunLocked records the run's current status on the board, where
// Get reads it, and emits it as a `run.state` event. Callers hold m.mu
// and call it at every change of a run's status.
func (m *Manager) publishRunLocked(r *run) {
	st := r.status()
	m.boardMu.Lock()
	m.board[r.id] = st
	m.boardMu.Unlock()
	topic := runTopic(r.id)
	if !m.bus.Active(topic) {
		return
	}
	m.bus.Publish(telemetry.BusEvent{
		Topic:  topic,
		Kind:   telemetry.EvBusRunState,
		Tenant: tenant.NameOf(r.tn),
		Data:   st,
	})
}

// flightSink returns the sink installed on a run's tracer: each trace
// event of a flight kind lands on the bus as a `flight` event when
// someone is watching. The sink runs under the tracer's lock, so it
// does nothing but the kind check and the gated publish.
func (m *Manager) flightSink(id string, tn string) func(*telemetry.Event) {
	topic := runTopic(id)
	return func(ev *telemetry.Event) {
		fe, ok := flight.FromTrace(ev)
		if !ok || !m.bus.Active(topic) {
			return
		}
		m.bus.Publish(telemetry.BusEvent{
			Topic:  topic,
			Kind:   telemetry.EvBusFlight,
			Tenant: tn,
			Data:   fe,
		})
	}
}

// sampleRunStats streams periodic RunStatsDelta events for a running
// run until stop closes. It resolves the run's private registry handles
// once and reads them lock-free each tick; with no watcher on the topic
// each tick is one atomic load.
func (m *Manager) sampleRunStats(r *run, stop <-chan struct{}) {
	interval := m.cfg.StatsInterval
	if interval <= 0 {
		interval = DefaultStatsInterval
	}
	topic := runTopic(r.id)
	tn := tenant.NameOf(r.tn)
	reg := r.tel.Metrics()
	cTicks := reg.Counter(telemetry.MetricSimTicks)
	cViol := reg.Counter(telemetry.MetricSimViolations)
	cProm := reg.Counter(telemetry.MetricPPEPromoted)
	cDem := reg.Counter(telemetry.MetricPPEDemoted)
	hP99 := reg.Histogram(telemetry.MetricSimP99)
	gLoad := reg.Gauge(telemetry.MetricSimLoad)
	gFMem := reg.Gauge(telemetry.MetricSimFMemRatio)

	started := time.Now()
	var last RunStatsDelta
	lastAt := started
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			if !m.bus.Active(topic) {
				continue
			}
			cur := RunStatsDelta{
				RunID:      r.id,
				ElapsedS:   now.Sub(started).Seconds(),
				IntervalS:  now.Sub(lastAt).Seconds(),
				Ticks:      cTicks.Value(),
				Violations: cViol.Value(),
				Promoted:   cProm.Value(),
				Demoted:    cDem.Value(),
				P99S:       hP99.Quantile(0.99),
				Load:       gLoad.Value(),
				FMemRatio:  gFMem.Value(),
			}
			cur.DTicks = cur.Ticks - last.Ticks
			cur.DViolations = cur.Violations - last.Violations
			cur.DPromoted = cur.Promoted - last.Promoted
			cur.DDemoted = cur.Demoted - last.Demoted
			m.bus.Publish(telemetry.BusEvent{
				Topic:  topic,
				Kind:   telemetry.EvBusRunStats,
				Tenant: tn,
				Data:   cur,
			})
			last, lastAt = cur, now
		}
	}
}

// SyncBusMetrics mirrors the bus's cumulative publish/overflow
// accounting into the daemon registry. Called when an SSE stream ends
// and at run finish — often enough for scrape freshness without a
// dedicated goroutine.
func (m *Manager) SyncBusMetrics() { m.bus.SyncMetrics(m.cfg.Telemetry.Metrics()) }
