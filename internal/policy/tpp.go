package policy

import (
	"github.com/tieredmem/mtat/internal/mem"
)

// TPP reimplements the TPP baseline [Maruf et al., ASPLOS'23] as the paper
// characterizes it (§5): active/inactive list management where NUMA hint
// faults promote recently touched SMem pages into FMem and demotion keeps
// a free-page headroom by evicting the coldest FMem pages. Hint faults
// fire on the request's critical path, so LC requests touching SMem pages
// pay a fault stall — which is why the paper observes TPP's LC latency
// falling below even SMEM_ALL (§5.1).
type TPP struct {
	// HintFaultFraction is the fraction of SMem accesses that trip a
	// NUMA hint fault (TPP samples by periodically poisoning PTEs).
	HintFaultFraction float64
	// FaultCost is the stall per hint fault (trap, migration decision,
	// possible TLB shootdown).
	FaultCost float64
	// Headroom is the fraction of FMem kept free by proactive demotion.
	Headroom float64
	// AgingInterval is how often (seconds) access counts are halved.
	AgingInterval float64

	lastAge float64
	stall   float64
	ids     []mem.WorkloadID // every workload, LC first (Init)
	promote []mem.PageID
	demote  []mem.PageID
}

var _ Policy = (*TPP)(nil)

// NewTPP returns a TPP baseline with defaults calibrated so that hint
// faults cost the LC workload enough service time that — even with the
// partial FMem residency fault-driven promotion earns it — its sustainable
// load lands below SMEM_ALL (~0.70x vs ~0.76x of FMEM_ALL), matching
// Figure 8 and the paper's observation that TPP's request-path fault
// handling makes it the worst performer despite allocating FMem to LC.
func NewTPP() *TPP {
	return &TPP{
		HintFaultFraction: 0.02,
		FaultCost:         9e-6,
		Headroom:          0.02,
		AgingInterval:     2,
	}
}

// Name implements Policy.
func (t *TPP) Name() string { return "TPP" }

// Init implements Policy.
func (t *TPP) Init(ctx *Context) error {
	t.ids = workloadIDs(t.ids, ctx)
	return nil
}

// Tick implements Policy.
func (t *TPP) Tick(ctx *Context) error {
	sys, ids := ctx.Sys, t.ids

	// Fault-driven promotion: every SMem page sampled this tick is a
	// promotion candidate, newest-touched first. Sampled pages — in
	// either tier — form the active list and are exempt from demotion.
	t.promote = t.promote[:0]
	for _, id := range ids {
		for _, pid := range ctx.Sampler.TickPages(id) {
			if !sys.PageInFMem(pid) {
				t.promote = append(t.promote, pid)
			}
		}
	}

	// Demotion keeps headroom: evict the coldest FMem pages to make room
	// for the promotions that can actually land this tick (bounded by
	// migration bandwidth) plus the free watermark.
	expected := len(t.promote)
	if budget := sys.MigrationBudgetPages(); expected > budget {
		expected = budget
	}
	want := expected + int(t.Headroom*float64(sys.FMemCapacityPages()))
	deficit := want - sys.FMemFreePages()
	t.demote = t.demote[:0]
	if deficit > 0 {
		t.demote = sys.AppendColdestFMem(t.demote, ids, deficit, ctx.Sampler.SampledThisTick)
	}
	sys.Exchange(t.promote, t.demote)

	// LC hint-fault stall: SMem touches occasionally trap. The expected
	// per-request stall is touches x missRatio x faultFraction x cost.
	t.stall = 0
	if ctx.LC != nil {
		miss := 1 - ctx.LC.HitRatio()
		t.stall = float64(ctx.LC.Config().MemTouches) * miss * t.HintFaultFraction * t.FaultCost
	}

	if ctx.Now-t.lastAge >= t.AgingInterval {
		sys.AgeHotness()
		t.lastAge = ctx.Now
	}
	return nil
}

// LCStall implements Policy.
func (t *TPP) LCStall() float64 { return t.stall }
