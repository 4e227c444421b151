package hist

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/tieredmem/mtat/internal/mem"
)

func TestBinOf(t *testing.T) {
	cases := []struct {
		count uint64
		want  int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 20, 21}, {1 << 62, NumBins - 1}, {^uint64(0), NumBins - 1},
	}
	for _, tc := range cases {
		if got := BinOf(tc.count); got != tc.want {
			t.Errorf("BinOf(%d) = %d, want %d", tc.count, got, tc.want)
		}
	}
}

func TestBinFloor(t *testing.T) {
	if BinFloor(0) != 0 || BinFloor(-1) != 0 {
		t.Error("BinFloor of non-positive bins should be 0")
	}
	if BinFloor(1) != 1 || BinFloor(2) != 2 || BinFloor(4) != 8 {
		t.Errorf("BinFloor wrong: %d %d %d", BinFloor(1), BinFloor(2), BinFloor(4))
	}
}

// Property: BinOf and BinFloor are consistent — every count lands in a bin
// whose floor does not exceed it, and the next bin's floor exceeds it.
func TestBinRoundTripProperty(t *testing.T) {
	f := func(count uint64) bool {
		b := BinOf(count)
		if BinFloor(b) > count {
			return false
		}
		if b < NumBins-1 && count >= BinFloor(b+1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramAddLen(t *testing.T) {
	var h Histogram
	h.Add(0, 0)
	h.Add(1, 5)
	h.Add(2, 5)
	if h.Len() != 3 {
		t.Errorf("Len = %d, want 3", h.Len())
	}
	if h.BinLen(0) != 1 || h.BinLen(BinOf(5)) != 2 {
		t.Errorf("bin lengths wrong: b0=%d b(5)=%d", h.BinLen(0), h.BinLen(BinOf(5)))
	}
	if h.BinLen(-1) != 0 || h.BinLen(NumBins) != 0 {
		t.Error("out-of-range BinLen should be 0")
	}
}

func TestHottestColdest(t *testing.T) {
	var h Histogram
	h.Add(10, 0)   // coldest
	h.Add(11, 2)   // middle
	h.Add(12, 100) // hottest
	h.Add(13, 101) // hottest bin, second

	hot := h.Hottest(nil, 2)
	if len(hot) != 2 || hot[0] != 12 || hot[1] != 13 {
		t.Errorf("Hottest(2) = %v, want [12 13]", hot)
	}
	cold := h.Coldest(nil, 2)
	if len(cold) != 2 || cold[0] != 10 || cold[1] != 11 {
		t.Errorf("Coldest(2) = %v, want [10 11]", cold)
	}
	if got := h.Hottest(nil, 0); len(got) != 0 {
		t.Errorf("Hottest(0) = %v, want empty", got)
	}
	if got := h.Hottest(nil, 100); len(got) != 4 {
		t.Errorf("Hottest(100) returned %d pages, want all 4", len(got))
	}
	// dst is appended to, not replaced.
	pre := []mem.PageID{99}
	got := h.Coldest(pre, 1)
	if len(got) != 2 || got[0] != 99 {
		t.Errorf("Coldest should append to dst, got %v", got)
	}
}

func TestHotSplit(t *testing.T) {
	var h Histogram
	h.Add(1, 50)
	h.Add(2, 3)
	h.Add(3, 0)
	h.Add(4, 200)

	hot, cold := h.HotSplit(2)
	if len(hot) != 2 || len(cold) != 2 {
		t.Fatalf("HotSplit(2) sizes = %d/%d, want 2/2", len(hot), len(cold))
	}
	if hot[0] != 4 || hot[1] != 1 {
		t.Errorf("hot = %v, want [4 1]", hot)
	}
	if cold[0] != 2 || cold[1] != 3 {
		t.Errorf("cold = %v, want [2 3]", cold)
	}
	hot, cold = h.HotSplit(0)
	if len(hot) != 0 || len(cold) != 4 {
		t.Errorf("HotSplit(0) sizes = %d/%d, want 0/4", len(hot), len(cold))
	}
	hot, cold = h.HotSplit(-3)
	if len(hot) != 0 || len(cold) != 4 {
		t.Errorf("HotSplit(-3) sizes = %d/%d, want 0/4", len(hot), len(cold))
	}
	hot, cold = h.HotSplit(10)
	if len(hot) != 4 || len(cold) != 0 {
		t.Errorf("HotSplit(10) sizes = %d/%d, want 4/0", len(hot), len(cold))
	}
}

// Property: HotSplit covers all pages exactly once, and every hot page's
// bin is >= every cold page's bin.
func TestHotSplitProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		n := rng.Intn(200)
		counts := make(map[mem.PageID]uint64, n)
		for i := 0; i < n; i++ {
			c := uint64(rng.Intn(1000))
			counts[mem.PageID(i)] = c
			h.Add(mem.PageID(i), c)
		}
		capacity := rng.Intn(n + 10)
		hot, cold := h.HotSplit(capacity)
		if len(hot)+len(cold) != n {
			return false
		}
		seen := make(map[mem.PageID]bool, n)
		minHotBin := NumBins
		for _, pid := range hot {
			if seen[pid] {
				return false
			}
			seen[pid] = true
			if b := BinOf(counts[pid]); b < minHotBin {
				minHotBin = b
			}
		}
		for _, pid := range cold {
			if seen[pid] {
				return false
			}
			seen[pid] = true
			if BinOf(counts[pid]) > minHotBin {
				return false
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Add(1, 5)
	h.Reset()
	if h.Len() != 0 {
		t.Errorf("Len after Reset = %d, want 0", h.Len())
	}
	if got := h.Hottest(nil, 10); len(got) != 0 {
		t.Errorf("Hottest after Reset = %v, want empty", got)
	}
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	h.Add(1, 0)
	h.Add(2, 4)
	if got, want := h.String(), "hist{b0:1 b3:1}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestBuilder(t *testing.T) {
	cfg := mem.Config{
		PageSize:           1 << 20,
		FMemBytes:          4 << 20,
		SMemBytes:          16 << 20,
		FMemLatency:        73 * time.Nanosecond,
		SMemLatency:        202 * time.Nanosecond,
		MigrationBandwidth: 4 << 20,
	}
	sys, err := mem.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sys.AddWorkload(6<<20, mem.TierFMem) // 4 FMem + 2 SMem pages
	if err != nil {
		t.Fatal(err)
	}
	pages := sys.WorkloadPages(w)
	for i, pid := range pages {
		sys.AddHotness(pid, uint64(i*10))
	}
	var b Builder
	if smem := b.SMem(sys, w); smem.Len() != 2 {
		t.Errorf("smem hist len = %d, want 2", smem.Len())
	}
	unified := b.Unified(sys, w)
	if unified.Len() != 6 {
		t.Errorf("unified hist len = %d, want 6", unified.Len())
	}
	// The hottest pages (hotness 40 and 50) share the top occupied
	// exponential bin, so either may come out first.
	hot := unified.Hottest(nil, 1)
	if len(hot) != 1 || (hot[0] != pages[4] && hot[0] != pages[5]) {
		t.Errorf("unified hottest = %v, want [%d] or [%d]", hot, pages[4], pages[5])
	}
	// Rebuild reuses storage and reflects new counts.
	sys.AgeHotness()
	unified2 := b.Unified(sys, w)
	if unified2.Len() != 6 {
		t.Errorf("rebuilt unified len = %d, want 6", unified2.Len())
	}
	assertSameBins(t, "rebuilt unified", unified2, naiveBuild(sys, w, false))
	assertSameBins(t, "rebuilt smem", b.SMem(sys, w), naiveBuild(sys, w, true))
	if got := b.Builds(); got != 4 {
		t.Errorf("Builds() = %d, want 4", got)
	}
}

// naiveBuild rebuilds w's histogram page by page through the Page struct
// accessor and Histogram.Add: all pages, or only SMem-resident ones.
func naiveBuild(sys *mem.System, w mem.WorkloadID, smemOnly bool) *Histogram {
	var h Histogram
	for _, pid := range sys.WorkloadPages(w) {
		p := sys.Page(pid)
		if smemOnly && p.Tier != mem.TierSMem {
			continue
		}
		h.Add(pid, p.Hotness)
	}
	return &h
}

func assertSameBins(t *testing.T, name string, got, want *Histogram) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Errorf("%s: len = %d, want %d", name, got.Len(), want.Len())
	}
	for bin := 0; bin < NumBins; bin++ {
		g, w := got.bins[bin], want.bins[bin]
		if len(g) != len(w) {
			t.Errorf("%s: bin %d holds %d pages, want %d", name, bin, len(g), len(w))
			continue
		}
		for i := range g {
			if g[i] != w[i] {
				t.Errorf("%s: bin %d page %d = %d, want %d", name, bin, i, g[i], w[i])
				break
			}
		}
	}
}

// TestBuilderMatchesNaiveRebuild checks both builds against a naive
// per-page rebuild, bin for bin and in page order, across workloads,
// migrations, aging, and alternating Unified/SMem builds on one Builder.
func TestBuilderMatchesNaiveRebuild(t *testing.T) {
	cfg := mem.Config{
		PageSize:           1 << 20,
		FMemBytes:          64 << 20,
		SMemBytes:          256 << 20,
		FMemLatency:        73 * time.Nanosecond,
		SMemLatency:        202 * time.Nanosecond,
		MigrationBandwidth: 1 << 40,
	}
	sys, err := mem.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ws []mem.WorkloadID
	for _, spec := range []struct {
		bytes int64
		tier  mem.Tier
	}{{40 << 20, mem.TierFMem}, {100 << 20, mem.TierSMem}, {30 << 20, mem.TierFMem}} {
		w, err := sys.AddWorkload(spec.bytes, spec.tier)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	rng := rand.New(rand.NewSource(7))
	var b Builder
	for round := 0; round < 20; round++ {
		sys.BeginTick(time.Second)
		for _, w := range ws {
			for _, pid := range sys.WorkloadPages(w) {
				if rng.Intn(3) == 0 {
					sys.AddHotness(pid, uint64(rng.Intn(1<<uint(rng.Intn(20)))))
				}
				if rng.Intn(10) == 0 {
					to := mem.TierFMem
					if sys.PageInFMem(pid) {
						to = mem.TierSMem
					}
					_ = sys.Migrate(pid, to) // a full FMem refuses; fine
				}
			}
		}
		if round%3 == 0 {
			sys.AgeHotness()
		}
		for _, w := range ws {
			assertSameBins(t, "unified", b.Unified(sys, w), naiveBuild(sys, w, false))
			assertSameBins(t, "smem", b.SMem(sys, w), naiveBuild(sys, w, true))
		}
	}
}
