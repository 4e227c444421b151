package mem

import (
	"math/rand"
	"testing"
	"time"
)

// TestSystemInvariantsRandomOps drives a System through a long randomized
// op sequence (fixed seed) and re-checks the structural invariants after
// every operation:
//
//   - tier capacities are never exceeded,
//   - fmemUsed + FMemFreePages == fmemCap (and the SMem equivalent),
//   - per-workload FMem counts sum to the global FMem usage,
//   - the occupancy bitset agrees with the per-workload accounts,
//   - Exchange conserves pages (no page appears or vanishes, and the
//     promoted/demoted counts match the tier-usage deltas).
func TestSystemInvariantsRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	cfg := DefaultConfig()
	cfg.PageSize = 4 << 20
	cfg.FMemBytes = 64 * cfg.PageSize  // 64 FMem pages
	cfg.SMemBytes = 512 * cfg.PageSize // 512 SMem pages
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}

	check := func(step string) {
		t.Helper()
		if sys.fmemUsed < 0 || sys.fmemUsed > sys.fmemCap {
			t.Fatalf("%s: fmemUsed %d outside [0, %d]", step, sys.fmemUsed, sys.fmemCap)
		}
		if sys.smemUsed < 0 || sys.smemUsed > sys.smemCap {
			t.Fatalf("%s: smemUsed %d outside [0, %d]", step, sys.smemUsed, sys.smemCap)
		}
		if got := sys.fmemUsed + sys.FMemFreePages(); got != sys.fmemCap {
			t.Fatalf("%s: fmemUsed+free = %d, want cap %d", step, got, sys.fmemCap)
		}
		if got := sys.smemUsed + sys.SMemFreePages(); got != sys.smemCap {
			t.Fatalf("%s: smemUsed+free = %d, want cap %d", step, got, sys.smemCap)
		}
		var fmemSum, totalSum int
		var nextLo PageID
		for w := 0; w < sys.NumWorkloads(); w++ {
			id := WorkloadID(w)
			fmemSum += sys.FMemPages(id)
			totalSum += sys.TotalPages(id)
			var bits int
			for _, pid := range sys.WorkloadPages(id) {
				if sys.PageOwner(pid) != id {
					t.Fatalf("%s: page %d owned by %d, listed under %d",
						step, pid, sys.PageOwner(pid), id)
				}
				if sys.PageInFMem(pid) {
					bits++
				}
			}
			if bits != sys.FMemPages(id) {
				t.Fatalf("%s: workload %d bitset count %d != account %d",
					step, id, bits, sys.FMemPages(id))
			}
			// The pages are one contiguous range in allocation order,
			// right after the previous workload's.
			lo, hi := sys.WorkloadRange(id)
			if int(hi-lo) != sys.TotalPages(id) || (w > 0 && lo != nextLo) || (w == 0 && lo != 0) {
				t.Fatalf("%s: workload %d range [%d, %d), %d pages, previous range ended at %d",
					step, id, lo, hi, sys.TotalPages(id), nextLo)
			}
			nextLo = hi
			for i, pid := range sys.WorkloadPages(id) {
				if pid != lo+PageID(i) {
					t.Fatalf("%s: workload %d page %d is %d, want %d", step, id, i, pid, lo+PageID(i))
				}
			}
			// FMemWeight sums the same weights in the same order as a
			// loop over the pages, so the floats are identical.
			weights := make([]float64, hi-lo)
			var want float64
			for i, pid := range sys.WorkloadPages(id) {
				weights[i] = 1 / float64(3+int(pid)*7%11+i)
				if sys.PageInFMem(pid) {
					want += weights[i]
				}
			}
			if got := sys.FMemWeight(id, weights); got != want {
				t.Fatalf("%s: workload %d FMemWeight %v, page loop %v", step, id, got, want)
			}
		}
		if fmemSum != sys.fmemUsed {
			t.Fatalf("%s: sum of per-workload FMem %d != fmemUsed %d", step, fmemSum, sys.fmemUsed)
		}
		if totalSum != sys.NumPages() {
			t.Fatalf("%s: sum of per-workload totals %d != NumPages %d", step, totalSum, sys.NumPages())
		}
	}

	// Seed a few workloads in both tiers.
	for i := 0; i < 4; i++ {
		pref := TierFMem
		if i%2 == 1 {
			pref = TierSMem
		}
		if _, err := sys.AddWorkload(int64(8+rng.Intn(64))*cfg.PageSize, pref); err != nil {
			t.Fatal(err)
		}
		check("AddWorkload")
	}

	randomPages := func(n int) []PageID {
		pages := make([]PageID, 0, n)
		for i := 0; i < n; i++ {
			pages = append(pages, PageID(rng.Intn(sys.NumPages())))
		}
		return pages
	}

	for op := 0; op < 4000; op++ {
		switch rng.Intn(10) {
		case 0: // new tick budget
			sys.BeginTick(time.Duration(1+rng.Intn(200)) * time.Millisecond)
		case 1: // occasional extra workload while space remains
			if sys.FMemFreePages()+sys.SMemFreePages() > 32 && sys.NumWorkloads() < 12 {
				if _, err := sys.AddWorkload(int64(1+rng.Intn(16))*cfg.PageSize, TierSMem); err != nil {
					t.Fatalf("AddWorkload: %v", err)
				}
			}
		case 2, 3: // hotness traffic and aging
			for i := 0; i < 32; i++ {
				sys.AddHotness(PageID(rng.Intn(sys.NumPages())), uint64(rng.Intn(1000)))
			}
			if rng.Intn(4) == 0 {
				sys.AgeHotness()
			}
		case 4, 5, 6: // single migrations, errors allowed
			pid := PageID(rng.Intn(sys.NumPages()))
			to := TierFMem
			if rng.Intn(2) == 0 {
				to = TierSMem
			}
			if err := sys.Migrate(pid, to); err != nil &&
				err != ErrTierFull && err != ErrBandwidthExhausted {
				t.Fatalf("Migrate: %v", err)
			}
		default: // Exchange conserves pages
			promote := randomPages(1 + rng.Intn(24))
			demote := randomPages(1 + rng.Intn(24))
			pagesBefore := sys.NumPages()
			fmemBefore, smemBefore := sys.fmemUsed, sys.smemUsed
			promBefore, demBefore := sys.PromotedPages(), sys.DemotedPages()
			promoted, demoted := sys.Exchange(promote, demote)
			if sys.NumPages() != pagesBefore {
				t.Fatalf("Exchange changed page count %d -> %d", pagesBefore, sys.NumPages())
			}
			if got := sys.PromotedPages() - promBefore; got != int64(promoted) {
				t.Fatalf("Exchange reported %d promotions, counter moved %d", promoted, got)
			}
			if got := sys.DemotedPages() - demBefore; got != int64(demoted) {
				t.Fatalf("Exchange reported %d demotions, counter moved %d", demoted, got)
			}
			if sys.fmemUsed-fmemBefore != promoted-demoted {
				t.Fatalf("Exchange fmem delta %d != promoted-demoted %d",
					sys.fmemUsed-fmemBefore, promoted-demoted)
			}
			if sys.smemUsed-smemBefore != demoted-promoted {
				t.Fatalf("Exchange smem delta %d != demoted-promoted %d",
					sys.smemUsed-smemBefore, demoted-promoted)
			}
		}
		check("op")
	}
}

// TestLazyAgingMatchesEagerAging replays one interleaved add/age/read
// trace through a lazy-aging system and an eager-aging reference and
// asserts every observed hotness value is identical — the page-level
// counterpart of the scenario-level differential harness in
// internal/simtest.
func TestLazyAgingMatchesEagerAging(t *testing.T) {
	build := func(eager bool) *System {
		cfg := DefaultConfig()
		cfg.PageSize = 4 << 20
		cfg.FMemBytes = 32 * cfg.PageSize
		cfg.SMemBytes = 256 * cfg.PageSize
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.SetReference(eager)
		if _, err := sys.AddWorkload(64*cfg.PageSize, TierFMem); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	lazy, eager := build(false), build(true)

	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 5000; step++ {
		pid := PageID(rng.Intn(lazy.NumPages()))
		switch rng.Intn(5) {
		case 0:
			lazy.AgeHotness()
			eager.AgeHotness()
		case 1: // deep decay: many agings in a row, incl. >64 on cold pages
			n := 1 + rng.Intn(90)
			for i := 0; i < n; i++ {
				lazy.AgeHotness()
				eager.AgeHotness()
			}
		default:
			delta := uint64(rng.Intn(1 << 16))
			lazy.AddHotness(pid, delta)
			eager.AddHotness(pid, delta)
		}
		if l, e := lazy.PageHotness(pid), eager.PageHotness(pid); l != e {
			t.Fatalf("step %d: page %d lazy hotness %d != eager %d", step, pid, l, e)
		}
	}
	for pid := 0; pid < lazy.NumPages(); pid++ {
		if l, e := lazy.PageHotness(PageID(pid)), eager.PageHotness(PageID(pid)); l != e {
			t.Fatalf("final: page %d lazy hotness %d != eager %d", pid, l, e)
		}
	}
}
