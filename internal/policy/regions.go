package policy

import (
	"sort"

	"github.com/tieredmem/mtat/internal/damon"
	"github.com/tieredmem/mtat/internal/mem"
)

// RegionMEMTIS is MEMTIS's global-hotness placement driven by DAMON-style
// region monitoring instead of per-page counters: each workload gets an
// adaptive region monitor (bounded bookkeeping), sampled accesses feed the
// monitors, and placement keeps the pages of the globally hottest regions
// in FMem. The "monitoring" experiment compares it against per-page
// MEMTIS to quantify the fidelity/bookkeeping trade-off the paper's
// related work (Telescope/DAMON) navigates.
type RegionMEMTIS struct {
	// Damon configures each workload's monitor.
	Damon damon.Config
	// AggInterval is the region aggregation cadence in seconds.
	AggInterval float64

	monitors map[mem.WorkloadID]*damon.Monitor
	ids      []mem.WorkloadID // every workload, LC first (Init)
	lastAgg  float64
	// ranked holds every region, hottest per-page rate first. A region's
	// rate and bounds change only when its monitor aggregates, so the
	// ranking is rebuilt after Init and after each aggregation only.
	ranked  []rankedRegion
	promote []mem.PageID
	demote  []mem.PageID
}

// rankedRegion is one region's page range and smoothed per-page rate.
type rankedRegion struct {
	rate  float64
	start mem.PageID
	end   mem.PageID
}

var _ Policy = (*RegionMEMTIS)(nil)

// NewRegionMEMTIS returns a region-monitored MEMTIS with DAMON defaults.
func NewRegionMEMTIS() *RegionMEMTIS {
	return &RegionMEMTIS{
		Damon:       damon.DefaultConfig(),
		AggInterval: 1,
		monitors:    make(map[mem.WorkloadID]*damon.Monitor),
	}
}

// Name implements Policy.
func (p *RegionMEMTIS) Name() string { return "MEMTIS (regions)" }

// Init implements Policy: one monitor per workload over its (contiguous)
// page range.
func (p *RegionMEMTIS) Init(ctx *Context) error {
	clear(p.monitors)
	p.ids = workloadIDs(p.ids, ctx)
	for _, id := range p.ids {
		lo, hi := ctx.Sys.WorkloadRange(id)
		cfg := p.Damon
		cfg.Seed += int64(id)
		m, err := damon.NewMonitor(lo, hi, cfg)
		if err != nil {
			return err
		}
		p.monitors[id] = m
	}
	p.lastAgg = 0
	p.rank(p.ids)
	return nil
}

// rank rebuilds the global region ranking from the monitors of ids.
func (p *RegionMEMTIS) rank(ids []mem.WorkloadID) {
	p.ranked = p.ranked[:0]
	for _, id := range ids {
		for _, r := range p.monitors[id].Regions() {
			rate := 0.0
			if r.Len() > 0 {
				rate = r.Smoothed / float64(r.Len())
			}
			p.ranked = append(p.ranked, rankedRegion{rate, r.Start, r.End})
		}
	}
	sort.Slice(p.ranked, func(i, j int) bool { return p.ranked[i].rate > p.ranked[j].rate })
}

// Tick implements Policy.
func (p *RegionMEMTIS) Tick(ctx *Context) error {
	sys, ids := ctx.Sys, p.ids

	// Feed this tick's sampled pages into the monitors. (At realistic
	// sampling rates per-page counts within one tick are almost always
	// 0 or 1, so unique-page feeding approximates count feeding.)
	for _, id := range ids {
		mon := p.monitors[id]
		for _, pid := range ctx.Sampler.TickPages(id) {
			mon.RecordAccess(pid)
		}
	}
	if ctx.Now-p.lastAgg >= p.AggInterval {
		for _, mon := range p.monitors {
			mon.Aggregate()
		}
		p.lastAgg = ctx.Now
		p.rank(ids)
	}

	// Global placement: walk the regions by per-page smoothed rate and
	// mark the top pages (up to FMem capacity) as the hot set.
	capacity := sys.FMemCapacityPages()
	p.promote = p.promote[:0]
	p.demote = p.demote[:0]
	filled := 0
	for _, r := range p.ranked {
		for pid := r.start; pid < r.end; pid++ {
			if filled < capacity {
				if !sys.PageInFMem(pid) {
					p.promote = append(p.promote, pid)
				}
				filled++
			} else if sys.PageInFMem(pid) {
				p.demote = append(p.demote, pid)
			}
		}
	}
	// Demote coldest first: p.demote was built hottest-first, so reverse.
	for i, j := 0, len(p.demote)-1; i < j; i, j = i+1, j-1 {
		p.demote[i], p.demote[j] = p.demote[j], p.demote[i]
	}
	sys.Exchange(p.promote, p.demote)
	return nil
}

// LCStall implements Policy.
func (p *RegionMEMTIS) LCStall() float64 { return 0 }

// TotalRegions returns the monitors' combined bookkeeping footprint.
func (p *RegionMEMTIS) TotalRegions() int {
	n := 0
	for _, m := range p.monitors {
		n += m.NumRegions()
	}
	return n
}
