package policy

import (
	"github.com/tieredmem/mtat/internal/mem"
)

// VTMM reimplements the vTMM baseline [Sha et al., EuroSys'23], which the
// paper's related-work section (§6) positions against MTAT: each
// workload's "hot set size" is the number of its pages whose access count
// exceeds a base threshold, and FMem is divided among workloads in
// proportion to their hot set sizes. Within each resulting partition the
// hottest pages are kept resident, exactly like PP-E's refinement.
//
// vTMM is partitioned like MTAT but load-blind like MEMTIS: a bursty LC
// tenant with low access frequency has a small hot set and therefore earns
// a small partition, so it inherits the same SLO failure mode.
type VTMM struct {
	// HotThreshold is the per-interval access count above which a page
	// counts toward the hot set.
	HotThreshold uint64
	// IntervalSeconds is the repartitioning cadence.
	IntervalSeconds float64
	// AgingInterval is how often (seconds) access counts are halved.
	AgingInterval float64

	lastDecision float64
	lastAge      float64
	targets      map[mem.WorkloadID]int
	ids          []mem.WorkloadID // every workload, LC first (Init)
	promote      []mem.PageID
	demote       []mem.PageID
}

var _ Policy = (*VTMM)(nil)

// NewVTMM returns a vTMM baseline with a hot threshold of 2 sampled
// accesses per interval.
func NewVTMM() *VTMM {
	return &VTMM{
		HotThreshold:    2,
		IntervalSeconds: 2.5,
		AgingInterval:   2,
		targets:         make(map[mem.WorkloadID]int),
	}
}

// Name implements Policy.
func (v *VTMM) Name() string { return "vTMM" }

// Init implements Policy.
func (v *VTMM) Init(ctx *Context) error {
	clear(v.targets)
	v.ids = workloadIDs(v.ids, ctx)
	for _, id := range v.ids {
		v.targets[id] = ctx.Sys.FMemPages(id)
	}
	v.lastDecision = 0
	v.lastAge = 0
	return nil
}

// Tick implements Policy.
func (v *VTMM) Tick(ctx *Context) error {
	sys, ids := ctx.Sys, v.ids

	if ctx.Now-v.lastDecision >= v.IntervalSeconds {
		v.repartition(sys, ids)
		v.lastDecision = ctx.Now
	}

	// Enforce each partition with hotness refinement (shared shape with
	// PP-E's Fig. 4b step).
	for _, id := range ids {
		v.refine(sys, id, v.targets[id])
	}

	if ctx.Now-v.lastAge >= v.AgingInterval {
		sys.AgeHotness()
		v.lastAge = ctx.Now
	}
	return nil
}

// repartition sizes each workload's partition proportionally to its hot
// set size.
func (v *VTMM) repartition(sys *mem.System, ids []mem.WorkloadID) {
	hotSizes := make([]int, len(ids))
	totalHot := 0
	for i, id := range ids {
		n := 0
		for _, pid := range sys.WorkloadPages(id) {
			if sys.PageHotness(pid) >= v.HotThreshold {
				n++
			}
		}
		hotSizes[i] = n
		totalHot += n
	}
	capacity := sys.FMemCapacityPages()
	if totalHot == 0 {
		// No hot pages anywhere: split evenly.
		for _, id := range ids {
			v.targets[id] = capacity / len(ids)
		}
		return
	}
	assigned := 0
	for i, id := range ids {
		share := capacity * hotSizes[i] / totalHot
		if max := sys.TotalPages(id); share > max {
			share = max
		}
		v.targets[id] = share
		assigned += share
	}
	// Hand leftover capacity (rounding, per-workload caps) to the largest
	// hot set that can still use it.
	for leftover := capacity - assigned; leftover > 0; {
		best, bestHot := -1, -1
		for i, id := range ids {
			if v.targets[id] < sys.TotalPages(id) && hotSizes[i] > bestHot {
				best, bestHot = i, hotSizes[i]
			}
		}
		if best < 0 {
			break
		}
		room := sys.TotalPages(ids[best]) - v.targets[ids[best]]
		grant := leftover
		if grant > room {
			grant = room
		}
		v.targets[ids[best]] += grant
		leftover -= grant
	}
}

// refine keeps the hottest `target` pages of one workload resident.
func (v *VTMM) refine(sys *mem.System, id mem.WorkloadID, target int) {
	v.promote, v.demote = sys.HotSplit([]mem.WorkloadID{id}, target, v.promote[:0], v.demote[:0])
	sys.Exchange(v.promote, v.demote)
}

// LCStall implements Policy.
func (v *VTMM) LCStall() float64 { return 0 }
