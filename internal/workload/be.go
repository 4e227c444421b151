package workload

import (
	"fmt"

	"github.com/tieredmem/mtat/internal/dist"
	"github.com/tieredmem/mtat/internal/mem"
)

// BEConfig describes a best-effort workload (Table 2).
type BEConfig struct {
	Name string
	// RSSBytes is the resident set size.
	RSSBytes int64
	// Cores is the number of cores assigned (§5's methodology pins each
	// BE workload to a fixed core set).
	Cores int
	// BaseRatePerCore is the work-unit throughput of one core when every
	// access hits FMem.
	BaseRatePerCore float64
	// MissWeight scales the slowdown from SMem accesses: throughput =
	// cores*rate / (1 + MissWeight*(1-hit)). A MissWeight of 1.0 means
	// running fully from SMem halves throughput.
	MissWeight float64
	// AccessesPerWork is the number of memory accesses per work unit,
	// which sets the workload's access intensity relative to others.
	AccessesPerWork float64
	// Dist is the page popularity profile.
	Dist DistSpec
}

// Validate reports whether the configuration is usable.
func (c BEConfig) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("workload: BE config needs a name")
	}
	if c.RSSBytes <= 0 {
		return fmt.Errorf("workload: %s RSSBytes must be > 0", c.Name)
	}
	if c.Cores <= 0 {
		return fmt.Errorf("workload: %s Cores must be > 0", c.Name)
	}
	if c.BaseRatePerCore <= 0 {
		return fmt.Errorf("workload: %s BaseRatePerCore must be > 0", c.Name)
	}
	if c.MissWeight < 0 {
		return fmt.Errorf("workload: %s MissWeight must be >= 0", c.Name)
	}
	if c.AccessesPerWork <= 0 {
		return fmt.Errorf("workload: %s AccessesPerWork must be > 0", c.Name)
	}
	return nil
}

// BE is a best-effort workload attached to a memory system.
type BE struct {
	cfg  BEConfig
	id   mem.WorkloadID
	sys  *mem.System
	dist dist.Distribution
	hits hitCache
	work float64 // cumulative completed work units
}

// NewBE attaches a BE workload to sys with the given initial tier
// preference.
func NewBE(sys *mem.System, cfg BEConfig, preferred mem.Tier) (*BE, error) {
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
	return &BE{
		cfg:  cfg,
		id:   id,
		sys:  sys,
		dist: d,
		hits: hitCache{probs: pageProbs(d, numPages)},
	}, nil
}

// Config returns the workload configuration.
func (be *BE) Config() BEConfig { return be.cfg }

// ID returns the memory-system workload ID.
func (be *BE) ID() mem.WorkloadID { return be.id }

// Dist returns the access popularity distribution over pages.
func (be *BE) Dist() dist.Distribution { return be.dist }

// HitRatio returns the FMem hit probability under current placement.
func (be *BE) HitRatio() float64 { return be.hits.ratio(be.sys, be.id) }

// ThroughputAt returns work units/second at the given hit ratio.
func (be *BE) ThroughputAt(hit float64) float64 {
	if hit < 0 {
		hit = 0
	}
	if hit > 1 {
		hit = 1
	}
	return float64(be.cfg.Cores) * be.cfg.BaseRatePerCore / (1 + be.cfg.MissWeight*(1-hit))
}

// PerfFull returns throughput with every access hitting FMem — the
// Perf_full denominator of Eq. 3.
func (be *BE) PerfFull() float64 { return be.ThroughputAt(1) }

// ProfileHitRatio returns the hit ratio if the workload's hottest
// fmemPages pages were FMem-resident — the assumption behind offline
// profiling (§4) where a hotness-managed partition of that size holds the
// hottest pages.
func (be *BE) ProfileHitRatio(fmemPages int) float64 {
	return dist.HitRatio(be.dist, fmemPages, be.sys.TotalPages(be.id))
}

// ProfileThroughput returns the profiled throughput for a hotness-managed
// FMem partition of fmemPages pages.
func (be *BE) ProfileThroughput(fmemPages int) float64 {
	return be.ThroughputAt(be.ProfileHitRatio(fmemPages))
}

// BETickResult reports one tick of BE progress.
type BETickResult struct {
	// Work is the work units completed this tick.
	Work float64
	// Throughput is work per second this tick.
	Throughput float64
	// Accesses is the number of memory accesses performed this tick.
	Accesses uint64
	// HitRatio is the FMem hit ratio used for this tick.
	HitRatio float64
}

// Tick advances the workload by dt seconds under current page placement.
func (be *BE) Tick(dt float64) (BETickResult, error) {
	if dt <= 0 {
		return BETickResult{}, fmt.Errorf("workload: %s dt must be > 0, got %g", be.cfg.Name, dt)
	}
	hit := be.HitRatio()
	tput := be.ThroughputAt(hit)
	work := tput * dt
	be.work += work
	return BETickResult{
		Work:       work,
		Throughput: tput,
		Accesses:   uint64(work * be.cfg.AccessesPerWork),
		HitRatio:   hit,
	}, nil
}

// TotalWork returns cumulative completed work units.
func (be *BE) TotalWork() float64 { return be.work }

// ResetWork clears the cumulative work counter between experiment phases.
func (be *BE) ResetWork() { be.work = 0 }
