package policy

import (
	"github.com/tieredmem/mtat/internal/mem"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// pool manages a set of workloads sharing a hotness-ranked FMem budget: it
// computes the globally hottest `capacity` pages across the workloads and
// exchanges pages so those become FMem-resident, within the tick's
// migration bandwidth. This is the shared mechanism behind MEMTIS's global
// placement and the BE-side management of the static baselines.
type pool struct {
	promote []mem.PageID
	demote  []mem.PageID

	// Migration traffic counters shared by every pool-based baseline
	// (nil-safe no-ops until attach).
	promotedPages *telemetry.Counter
	demotedPages  *telemetry.Counter
}

// attach resolves the pool's traffic counters from the context's sink
// (policy_promoted_pages_total / policy_demoted_pages_total). Call from
// the owning policy's Init.
func (p *pool) attach(ctx *Context) {
	reg := ctx.Telemetry.Metrics()
	p.promotedPages = reg.Counter("policy_promoted_pages_total")
	p.demotedPages = reg.Counter("policy_demoted_pages_total")
}

// record folds one exchange into the traffic counters and passes the
// counts through.
func (p *pool) record(promoted, demoted int) (int, int) {
	p.promotedPages.Add(int64(promoted))
	p.demotedPages.Add(int64(demoted))
	return promoted, demoted
}

// manage drives the pool toward "hottest capacity pages resident" for the
// given workloads and returns (promoted, demoted) page counts. Demotions
// leave coldest first, so the cheapest pages leave FMem ahead of warmer
// ones when bandwidth runs out.
func (p *pool) manage(sys *mem.System, ids []mem.WorkloadID, capacity int) (int, int) {
	p.promote, p.demote = sys.HotSplit(ids, capacity, p.promote[:0], p.demote[:0])
	return p.record(sys.Exchange(p.promote, p.demote))
}

// pin drives a single workload toward exactly `target` FMem-resident
// pages, promoting its hottest SMem pages or demoting its coldest FMem
// pages. When FMem lacks free space for a grow, the coldest FMem pages of
// the victim workloads are demoted to make room. Returns (promoted,
// demoted).
func (p *pool) pin(sys *mem.System, id mem.WorkloadID, target int, victims ...mem.WorkloadID) (int, int) {
	cur := sys.FMemPages(id)
	ids := []mem.WorkloadID{id}
	switch {
	case cur < target:
		p.promote = sys.AppendHottestSMem(p.promote[:0], ids, target-cur)
		p.demote = p.demote[:0]
		if need := len(p.promote) - sys.FMemFreePages(); need > 0 && len(victims) > 0 {
			p.demote = sys.AppendColdestFMem(p.demote, victims, need, nil)
		}
		return p.record(sys.Exchange(p.promote, p.demote))
	case cur > target:
		p.demote = sys.AppendColdestFMem(p.demote[:0], ids, cur-target, nil)
		return p.record(sys.Exchange(nil, p.demote))
	default:
		return 0, 0
	}
}
