package workload

import (
	"fmt"

	"github.com/tieredmem/mtat/internal/dist"
	"github.com/tieredmem/mtat/internal/mem"
	"github.com/tieredmem/mtat/internal/queue"
)

// LCConfig describes a latency-critical workload (Table 1).
type LCConfig struct {
	Name string
	// RSSBytes is the resident set size.
	RSSBytes int64
	// Servers is the number of request-serving threads (the queue's c).
	Servers int
	// SLOSeconds is the P99 latency objective.
	SLOSeconds float64
	// MaxLoadRPS is the peak sustainable request rate with 100% FMem
	// (Table 1's Max Load); load patterns are fractions of this.
	MaxLoadRPS float64
	// CPUSeconds is the per-request compute time excluding memory stalls.
	CPUSeconds float64
	// MemTouches is the number of memory accesses a request performs.
	MemTouches int
	// ServiceVar is the fraction of service time that is exponentially
	// distributed (service = mean*((1-v) + v*Exp(1)), so CV² = v²).
	ServiceVar float64
	// ClientTimeoutSeconds bounds queueing delay: the load generator
	// abandons requests that would wait longer (dropped requests count
	// as SLO violations). Zero defaults to 5x the SLO.
	ClientTimeoutSeconds float64
	// Dist is the request key popularity over the dataset.
	Dist DistSpec
}

// Validate reports whether the configuration is usable.
func (c LCConfig) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("workload: LC config needs a name")
	}
	if c.RSSBytes <= 0 {
		return fmt.Errorf("workload: %s RSSBytes must be > 0", c.Name)
	}
	if c.Servers <= 0 {
		return fmt.Errorf("workload: %s Servers must be > 0", c.Name)
	}
	if c.SLOSeconds <= 0 {
		return fmt.Errorf("workload: %s SLOSeconds must be > 0", c.Name)
	}
	if c.MaxLoadRPS <= 0 {
		return fmt.Errorf("workload: %s MaxLoadRPS must be > 0", c.Name)
	}
	if c.CPUSeconds <= 0 {
		return fmt.Errorf("workload: %s CPUSeconds must be > 0", c.Name)
	}
	if c.MemTouches <= 0 {
		return fmt.Errorf("workload: %s MemTouches must be > 0", c.Name)
	}
	if c.ServiceVar < 0 || c.ServiceVar > 1 {
		return fmt.Errorf("workload: %s ServiceVar must be in [0,1]", c.Name)
	}
	return nil
}

// LC is a latency-critical workload attached to a memory system.
type LC struct {
	cfg  LCConfig
	id   mem.WorkloadID
	sys  *mem.System
	q    *queue.Model
	dist dist.Distribution
	hits hitCache
}

// NewLC attaches an LC workload to sys, allocating its RSS with the given
// initial tier preference.
func NewLC(sys *mem.System, cfg LCConfig, preferred mem.Tier, seed int64) (*LC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	id, err := sys.AddWorkload(cfg.RSSBytes, preferred)
	if err != nil {
		return nil, fmt.Errorf("workload: attach %s: %w", cfg.Name, err)
	}
	numPages := sys.TotalPages(id)
	d, err := cfg.Dist.build(numPages)
	if err != nil {
		return nil, fmt.Errorf("workload: %s distribution: %w", cfg.Name, err)
	}
	q, err := queue.NewModel(cfg.Servers, seed)
	if err != nil {
		return nil, fmt.Errorf("workload: %s queue: %w", cfg.Name, err)
	}
	timeout := cfg.ClientTimeoutSeconds
	if timeout == 0 {
		timeout = 5 * cfg.SLOSeconds
	}
	q.SetClientTimeout(timeout)
	return &LC{
		cfg:  cfg,
		id:   id,
		sys:  sys,
		q:    q,
		dist: d,
		hits: hitCache{probs: pageProbs(d, numPages)},
	}, nil
}

// Config returns the workload configuration.
func (lc *LC) Config() LCConfig { return lc.cfg }

// ID returns the memory-system workload ID.
func (lc *LC) ID() mem.WorkloadID { return lc.id }

// Dist returns the request popularity distribution over pages.
func (lc *LC) Dist() dist.Distribution { return lc.dist }

// HitRatio returns the probability that a memory touch lands in FMem under
// the current page placement.
func (lc *LC) HitRatio() float64 { return lc.hits.ratio(lc.sys, lc.id) }

// ServiceDist returns the per-request service time distribution given an
// FMem hit ratio and an extra per-request stall (e.g. TPP fault handling).
func (lc *LC) ServiceDist(hit, extraStall float64) queue.ServiceDist {
	memCfg := lc.sys.Config()
	latF := memCfg.FMemLatency.Seconds()
	latS := memCfg.SMemLatency.Seconds()
	mean := lc.cfg.CPUSeconds +
		float64(lc.cfg.MemTouches)*(hit*latF+(1-hit)*latS) +
		extraStall
	return queue.ServiceDist{Mean: mean, V: lc.cfg.ServiceVar}
}

// TickResult extends the queue result with the access count the workload
// generated, which feeds the PEBS sampler and the RL state.
type TickResult struct {
	queue.TickResult
	// Accesses is the number of memory accesses performed this tick.
	Accesses uint64
	// HitRatio is the FMem hit ratio used for this tick.
	HitRatio float64
}

// Tick advances the workload by dt seconds at loadFrac of max load, with an
// extra per-request stall folded into service time. It returns queue and
// access statistics for the tick.
func (lc *LC) Tick(loadFrac, dt, extraStall float64) (TickResult, error) {
	if loadFrac < 0 {
		return TickResult{}, fmt.Errorf("workload: %s loadFrac must be >= 0, got %g", lc.cfg.Name, loadFrac)
	}
	hit := lc.HitRatio()
	svc := lc.ServiceDist(hit, extraStall)
	rate := loadFrac * lc.cfg.MaxLoadRPS
	qr, err := lc.q.Tick(rate, dt, svc, lc.cfg.SLOSeconds)
	if err != nil {
		return TickResult{}, fmt.Errorf("workload: %s tick: %w", lc.cfg.Name, err)
	}
	return TickResult{
		TickResult: qr,
		Accesses:   uint64(qr.Completed * float64(lc.cfg.MemTouches)),
		HitRatio:   hit,
	}, nil
}

// StationaryP99 returns the analytic steady-state P99 at the given load
// fraction and hit ratio, ignoring backlog — used by knee-finding searches.
func (lc *LC) StationaryP99(loadFrac, hit, extraStall float64) float64 {
	svc := lc.ServiceDist(hit, extraStall)
	return lc.q.StationaryP99(loadFrac*lc.cfg.MaxLoadRPS, svc)
}

// MaxStableLoadFrac returns the largest load fraction (of MaxLoadRPS) whose
// steady-state P99 stays within the SLO at the given hit ratio, found by
// bisection. It returns 0 if even idle load violates.
func (lc *LC) MaxStableLoadFrac(hit, extraStall float64) float64 {
	lo, hi := 0.0, 2.0 // search beyond 1: with full FMem the knee sits near 1
	if lc.StationaryP99(lo+1e-9, hit, extraStall) > lc.cfg.SLOSeconds {
		return 0
	}
	for i := 0; i < 48; i++ {
		mid := (lo + hi) / 2
		if lc.StationaryP99(mid, hit, extraStall) <= lc.cfg.SLOSeconds {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// ResetQueue clears queue backlog between experiment phases.
func (lc *LC) ResetQueue() { lc.q.ResetBacklog() }

// Queue exposes the underlying queue model for observability (tick and
// Monte Carlo draw counters); callers must not Tick it directly.
func (lc *LC) Queue() *queue.Model { return lc.q }
