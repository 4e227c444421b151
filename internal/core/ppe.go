package core

import (
	"fmt"

	"github.com/tieredmem/mtat/internal/cgroupfs"
	"github.com/tieredmem/mtat/internal/mem"
	"github.com/tieredmem/mtat/internal/policy"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// PPE is the Partition Policy Enforcer (§3.3, the paper's kernel-space
// daemon). Each tick it (1) accumulates and publishes per-workload memory
// statistics over the cgroup interface, (2) advances any pending partition
// adjustment with LC-first, bandwidth-sliced page exchanges (Algorithm 3),
// and (3) refines each settled partition so its hottest pages are
// FMem-resident (Figure 4b), never crossing partition boundaries.
type PPE struct {
	fs   *cgroupfs.FS
	lcID mem.WorkloadID
	// hasLC marks whether an LC workload participates.
	hasLC bool
	ids   []mem.WorkloadID // all managed workloads, LC first if present

	// targets are the current partition sizes in pages.
	targets map[mem.WorkloadID]int
	// sharedBE marks workloads managed as one shared hotness pool rather
	// than a dedicated partition (the MTAT (LC Only) variant).
	sharedBE bool

	// interval accumulation for published stats
	acc map[mem.WorkloadID]*workloadStat

	policyGen uint64 // last observed policy file generation

	promote []mem.PageID
	demote  []mem.PageID
	bePool  []mem.WorkloadID

	// tel holds the observability handles (zero value = no-op); now is
	// the current tick's simulation time, for event timestamps.
	tel ppeTel
	now float64
}

// NewPPE returns an enforcer communicating over fs. sharedBE selects the
// MTAT (LC Only) variant where BE workloads compete for leftover FMem via
// global hotness instead of dedicated partitions.
func NewPPE(fs *cgroupfs.FS, sharedBE bool) *PPE {
	return &PPE{
		fs:       fs,
		sharedBE: sharedBE,
		targets:  make(map[mem.WorkloadID]int),
		acc:      make(map[mem.WorkloadID]*workloadStat),
	}
}

// Init captures the workload set and seeds initial targets from current
// residency so enforcement starts from a no-op.
func (e *PPE) Init(ctx *policy.Context) error {
	e.ids = e.ids[:0]
	e.bePool = e.bePool[:0]
	e.hasLC = ctx.LC != nil
	if e.hasLC {
		e.lcID = ctx.LC.ID()
		e.ids = append(e.ids, e.lcID)
	}
	for _, be := range ctx.BEs {
		e.ids = append(e.ids, be.ID())
		e.bePool = append(e.bePool, be.ID())
	}
	if len(e.ids) == 0 {
		return fmt.Errorf("core: PPE needs at least one workload")
	}
	clear(e.targets)
	for _, id := range e.ids {
		e.targets[id] = ctx.Sys.FMemPages(id)
		e.acc[id] = &workloadStat{}
	}
	e.policyGen = e.fs.Generation(policyPath)
	e.tel = bindPPETel(ctx.Telemetry)
	return nil
}

// ResetInterval clears the per-interval stat accumulators (PP-M calls the
// turn of an interval; the controller invokes this after a decision).
func (e *PPE) ResetInterval() {
	for _, s := range e.acc {
		*s = workloadStat{}
	}
}

// Targets returns the current partition targets (live map; callers must
// not mutate).
func (e *PPE) Targets() map[mem.WorkloadID]int { return e.targets }

// Tick runs one enforcement step.
func (e *PPE) Tick(ctx *policy.Context) error {
	e.now = ctx.Now
	e.accumulate(ctx)
	if err := e.publish(); err != nil {
		return err
	}
	e.pollPolicy()
	e.enforce(ctx)
	return nil
}

// accumulate folds this tick's measurements into the interval accumulators.
func (e *PPE) accumulate(ctx *policy.Context) {
	sys := ctx.Sys
	for _, id := range e.ids {
		s := e.acc[id]
		s.FMemPages = sys.FMemPages(id)
		s.TotalPages = sys.TotalPages(id)
		s.FMemAcc += ctx.Sampler.TickFMemAccesses(id)
		s.SMemAcc += ctx.Sampler.TickSMemAccesses(id)
	}
	if e.hasLC {
		s := e.acc[e.lcID]
		s.Accesses += ctx.LCResult.Accesses
		if p := ctx.LCResult.P99; p > s.P99 {
			s.P99 = p
		}
		s.Violations += ctx.LCResult.ViolationFrac * ctx.LCResult.Completed
		s.Requests += ctx.LCResult.Completed
	}
	for i, be := range ctx.BEs {
		if i < len(ctx.BEResults) {
			e.acc[be.ID()].Accesses += ctx.BEResults[i].Accesses
		}
	}
}

// publish writes the accumulated stats to the cgroup interface.
func (e *PPE) publish() error {
	for _, id := range e.ids {
		if err := e.fs.WriteString(statPath(id), e.acc[id].encode()); err != nil {
			return err
		}
	}
	return nil
}

// pollPolicy applies a new partition policy if PP-M wrote one.
func (e *PPE) pollPolicy() {
	gen := e.fs.Generation(policyPath)
	if gen == e.policyGen {
		return
	}
	e.policyGen = gen
	data, err := e.fs.ReadString(policyPath)
	if err != nil {
		// File raced away; keep current targets.
		e.tel.policyErrors.Inc()
		if tr := e.tel.tr; tr != nil {
			tr.Emit(e.now, telemetry.EvPPEPolicyError, telemetry.WLNone,
				telemetry.F("generation", float64(gen)))
		}
		return
	}
	targets, err := decodePolicy(data)
	if err != nil {
		// Malformed policy; keep current targets.
		e.tel.policyErrors.Inc()
		if tr := e.tel.tr; tr != nil {
			tr.Emit(e.now, telemetry.EvPPEPolicyError, telemetry.WLNone,
				telemetry.F("generation", float64(gen)))
		}
		return
	}
	e.tel.policyOK.Inc()
	for _, id := range e.ids {
		pages, ok := targets[id]
		if !ok {
			continue
		}
		prev := e.targets[id]
		e.targets[id] = pages
		// Emit every adopted target (delta records change vs. hold) so
		// the trace shows the partition plan even when PP-M stands pat.
		if tr := e.tel.tr; tr != nil {
			tr.Emit(e.now, telemetry.EvPPETarget, int(id),
				telemetry.I("target_pages", pages),
				telemetry.I("prev_pages", prev),
				telemetry.I("delta", pages-prev))
		}
	}
}

// enforce advances toward the targets (Algorithm 3) and refines settled
// partitions (Figure 4b), all within this tick's migration budget.
func (e *PPE) enforce(ctx *policy.Context) {
	sys := ctx.Sys
	pmax := sys.MigrationBudgetPages()
	if pmax == 0 {
		return
	}

	// Deltas between desired and current allocations.
	deltaLC := 0
	if e.hasLC {
		deltaLC = e.targets[e.lcID] - sys.FMemPages(e.lcID)
	}
	var promoteSet, demoteSet []beDelta
	var promoteSum, demoteSum int
	if !e.sharedBE {
		for _, id := range e.bePool {
			d := e.targets[id] - sys.FMemPages(id)
			if d > 0 {
				promoteSet = append(promoteSet, beDelta{id, d})
				promoteSum += d
			} else if d < 0 {
				demoteSet = append(demoteSet, beDelta{id, -d})
				demoteSum += -d
			}
		}
	}

	// Slice allocation (Algorithm 3): LC movement takes the slice first,
	// counter-movement is distributed proportionally across the BE set.
	e.promote = e.promote[:0]
	e.demote = e.demote[:0]
	switch {
	case deltaLC > 0:
		mLC := min(deltaLC, pmax)
		e.appendHottestSMem(sys, e.lcID, mLC)
		// LC promotion displaces BE pages: take demotions from the
		// demote set proportionally; if the demote set cannot cover it,
		// pull the coldest pages from every BE (shared or not).
		need := mLC - sys.FMemFreePages()
		if need > 0 {
			if demoteSum > 0 {
				e.appendProportionalDemotes(sys, demoteSet, demoteSum, need)
			} else {
				e.appendColdestFMemOf(sys, e.bePool, need)
			}
		}
	case deltaLC < 0:
		mLC := min(-deltaLC, pmax)
		e.appendColdestFMemOf(sys, []mem.WorkloadID{e.lcID}, mLC)
		if promoteSum > 0 {
			e.appendProportionalPromotes(sys, promoteSet, promoteSum, mLC)
		}
	}
	if deltaLC == 0 && !e.sharedBE && (promoteSum > 0 || demoteSum > 0) {
		// Pure BE rebalancing: pair promotions and demotions
		// proportionally to their demands (Algorithm 3's else branch).
		p := min(pmax, max(promoteSum, demoteSum))
		e.appendProportionalPromotes(sys, promoteSet, promoteSum, min(p, promoteSum))
		e.appendProportionalDemotes(sys, demoteSet, demoteSum, min(p, demoteSum))
	}
	if len(e.promote) > 0 || len(e.demote) > 0 {
		promoted, demoted := sys.Exchange(e.promote, e.demote)
		e.tel.slices.Inc()
		e.tel.promoted.Add(int64(promoted))
		e.tel.demoted.Add(int64(demoted))
		e.tel.migBytes.Add(sys.PagesToBytes(promoted + demoted))
		if tr := e.tel.tr; tr != nil {
			tr.Emit(e.now, telemetry.EvPPESlice, telemetry.WLNone,
				telemetry.I("delta_lc", deltaLC),
				telemetry.I("budget_pages", pmax),
				telemetry.I("promote_req", len(e.promote)),
				telemetry.I("demote_req", len(e.demote)),
				telemetry.I("promoted", promoted),
				telemetry.I("demoted", demoted),
				telemetry.F("bytes", float64(sys.PagesToBytes(promoted+demoted))))
		}
		return // adjustment continues next tick; defer refinement
	}

	// Refinement (Figure 4b): partitions are settled; keep each
	// workload's hottest pages resident within its own partition.
	if e.hasLC {
		e.refineWorkload(sys, e.lcID, e.targets[e.lcID])
	}
	if e.sharedBE {
		// MTAT (LC Only): BEs share the remaining capacity by global
		// hotness, like MEMTIS but fenced off from the LC partition.
		remaining := sys.FMemCapacityPages()
		if e.hasLC {
			remaining -= sys.FMemPages(e.lcID)
		}
		e.refinePool(sys, e.bePool, remaining)
		return
	}
	for _, id := range e.bePool {
		e.refineWorkload(sys, id, e.targets[id])
	}
}

// refineWorkload keeps the hottest `target` pages of one workload resident.
func (e *PPE) refineWorkload(sys *mem.System, id mem.WorkloadID, target int) {
	e.refine(sys, []mem.WorkloadID{id}, int(id), target)
}

// refinePool keeps the globally hottest `capacity` pages of a workload set
// resident (the shared-BE variant).
func (e *PPE) refinePool(sys *mem.System, ids []mem.WorkloadID, capacity int) {
	e.refine(sys, ids, telemetry.WLNone, capacity)
}

// refine keeps the hottest `capacity` pages of ids resident and records
// the pass under trace workload wl.
func (e *PPE) refine(sys *mem.System, ids []mem.WorkloadID, wl, capacity int) {
	e.promote, e.demote = sys.HotSplit(ids, capacity, e.promote[:0], e.demote[:0])
	promoted, demoted := sys.Exchange(e.promote, e.demote)
	e.recordRefine(sys, ids, wl, capacity, promoted, demoted)
}

// recordRefine folds one refinement pass into the telemetry sink: page
// movement counters, a ppe.refine event, and a ppe.hist occupancy summary
// of the hotness bins that drove the split. Quiet passes (no movement)
// emit nothing.
func (e *PPE) recordRefine(sys *mem.System, ids []mem.WorkloadID, wl, target, promoted, demoted int) {
	if promoted == 0 && demoted == 0 {
		return
	}
	e.tel.refines.Inc()
	e.tel.promoted.Add(int64(promoted))
	e.tel.demoted.Add(int64(demoted))
	e.tel.migBytes.Add(sys.PagesToBytes(promoted + demoted))
	tr := e.tel.tr
	if tr == nil {
		return
	}
	tr.Emit(e.now, telemetry.EvPPERefine, wl,
		telemetry.I("target_pages", target),
		telemetry.I("promoted", promoted),
		telemetry.I("demoted", demoted),
		telemetry.F("bytes", float64(sys.PagesToBytes(promoted+demoted))))
	counts := sys.BinCounts(ids)
	pages, occupied, topBin := 0, 0, 0
	for b, n := range counts {
		pages += n
		if n > 0 {
			occupied++
			topBin = b
		}
	}
	tr.Emit(e.now, telemetry.EvPPEHist, wl,
		telemetry.I("pages", pages),
		telemetry.I("occupied_bins", occupied),
		telemetry.I("top_bin", topBin),
		telemetry.I("top_len", counts[topBin]))
}

// appendHottestSMem appends up to n of id's hottest SMem pages to promote.
func (e *PPE) appendHottestSMem(sys *mem.System, id mem.WorkloadID, n int) {
	e.promote = sys.AppendHottestSMem(e.promote, []mem.WorkloadID{id}, n)
}

// appendColdestFMemOf appends up to n of the coldest FMem pages across ids
// to demote.
func (e *PPE) appendColdestFMemOf(sys *mem.System, ids []mem.WorkloadID, n int) {
	e.demote = sys.AppendColdestFMem(e.demote, ids, n, nil)
}

// beDelta pairs a BE workload with its outstanding allocation delta.
type beDelta struct {
	id    mem.WorkloadID
	delta int
}

// appendProportionalPromotes distributes n promotions across the promote
// set proportionally to each member's remaining demand (largest-remainder
// rounding) and appends each member's hottest SMem pages.
func (e *PPE) appendProportionalPromotes(sys *mem.System, set []beDelta, sum, n int) {
	if sum <= 0 || n <= 0 {
		return
	}
	shares := proportionalShares(set, sum, n)
	for i, bd := range set {
		if shares[i] > 0 {
			e.appendHottestSMem(sys, bd.id, shares[i])
		}
	}
}

// appendProportionalDemotes distributes n demotions across the demote set
// proportionally and appends each member's coldest FMem pages.
func (e *PPE) appendProportionalDemotes(sys *mem.System, set []beDelta, sum, n int) {
	if sum <= 0 || n <= 0 {
		return
	}
	shares := proportionalShares(set, sum, n)
	for i, bd := range set {
		if shares[i] > 0 {
			e.appendColdestFMemOf(sys, []mem.WorkloadID{bd.id}, shares[i])
		}
	}
}

// proportionalShares splits n across set members proportionally to their
// deltas, capping at each delta, using largest-remainder rounding.
func proportionalShares(set []beDelta, sum, n int) []int {
	if n > sum {
		n = sum
	}
	shares := make([]int, len(set))
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, 0, len(set))
	assigned := 0
	for i, bd := range set {
		exact := float64(n) * float64(bd.delta) / float64(sum)
		shares[i] = int(exact)
		if shares[i] > bd.delta {
			shares[i] = bd.delta
		}
		assigned += shares[i]
		rems = append(rems, rem{i, exact - float64(shares[i])})
	}
	// Distribute the remainder to the largest fractional parts.
	for assigned < n {
		best := -1
		for j, r := range rems {
			if shares[r.idx] >= set[r.idx].delta {
				continue
			}
			if best == -1 || r.frac > rems[best].frac {
				best = j
			}
		}
		if best == -1 {
			break
		}
		shares[rems[best].idx]++
		rems[best].frac = -1
		assigned++
	}
	return shares
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
