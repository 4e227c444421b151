package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. All methods are
// safe for concurrent use and are no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// RaiseTo lifts the counter to total, the running value of some
// monotonic source it mirrors (a ring's drop count, a bus's publish
// count); a total at or below the current count is a no-op.
func (c *Counter) RaiseTo(total uint64) {
	if d := int64(total) - c.Value(); d > 0 {
		c.Add(d)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value float metric. All methods are safe for concurrent
// use and are no-ops on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v as the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta atomically (CAS loop) — safe for
// concurrent in-flight accounting where Set(Value()+1) would race.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry is a named metric store. Metric handles are get-or-create: the
// first lookup of a name allocates the metric, later lookups return the
// same instance, so components resolve handles once and update them
// lock-free afterwards. A nil *Registry returns nil handles, which accept
// every update as a no-op.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	histWindow int
}

// NewRegistry returns an empty registry whose histograms keep histWindow
// samples (<= 0 selects DefaultHistWindow).
func NewRegistry(histWindow int) *Registry {
	if histWindow <= 0 {
		histWindow = DefaultHistWindow
	}
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		hists:      make(map[string]*Histogram),
		histWindow: histWindow,
	}
}

// Counter returns the counter registered under name, creating it if
// needed. Returns nil (a valid no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
// Returns nil (a valid no-op gauge) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the windowed histogram registered under name, creating
// it if needed. Returns nil (a valid no-op histogram) on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; !ok {
		h = NewHistogram(r.histWindow)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric in the registry,
// shaped for JSON encoding.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot captures every registered metric. A nil registry yields an
// empty (but non-nil-mapped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteJSON renders the registry snapshot as indented JSON (keys sorted by
// encoding/json's map ordering).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
