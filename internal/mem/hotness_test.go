package mem

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
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

// hotSystem returns a system holding one workload whose pages carry the
// given hotness counts, all placed in tier.
func hotSystem(t *testing.T, tier Tier, counts ...uint64) (*System, []WorkloadID, []PageID) {
	t.Helper()
	cfg := testConfig()
	cfg.FMemBytes = int64(len(counts)+1) * cfg.PageSize
	cfg.SMemBytes = int64(len(counts)+1) * cfg.PageSize
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sys.AddWorkload(int64(len(counts))*cfg.PageSize, tier)
	if err != nil {
		t.Fatal(err)
	}
	pages := sys.WorkloadPages(w)
	for i, c := range counts {
		sys.AddHotness(pages[i], c)
	}
	return sys, []WorkloadID{w}, pages
}

func TestHottestColdest(t *testing.T) {
	counts := []uint64{0, 2, 100, 101} // coldest, middle, hottest, hottest bin second
	smem, ids, p := hotSystem(t, TierSMem, counts...)
	if hot := smem.AppendHottestSMem(nil, ids, 2); !slices.Equal(hot, []PageID{p[2], p[3]}) {
		t.Errorf("AppendHottestSMem(2) = %v, want %v", hot, []PageID{p[2], p[3]})
	}
	if got := smem.AppendHottestSMem(nil, ids, 0); len(got) != 0 {
		t.Errorf("AppendHottestSMem(0) = %v, want empty", got)
	}
	if got := smem.AppendHottestSMem(nil, ids, 100); len(got) != 4 {
		t.Errorf("AppendHottestSMem(100) returned %d pages, want all 4", len(got))
	}
	if got := smem.AppendColdestFMem(nil, ids, 4, nil); len(got) != 0 {
		t.Errorf("AppendColdestFMem over SMem pages = %v, want empty", got)
	}

	fmem, ids, p := hotSystem(t, TierFMem, counts...)
	if cold := fmem.AppendColdestFMem(nil, ids, 2, nil); !slices.Equal(cold, []PageID{p[0], p[1]}) {
		t.Errorf("AppendColdestFMem(2) = %v, want %v", cold, []PageID{p[0], p[1]})
	}
	skip := func(pid PageID) bool { return pid == p[0] }
	if cold := fmem.AppendColdestFMem(nil, ids, 2, skip); !slices.Equal(cold, []PageID{p[1], p[2]}) {
		t.Errorf("AppendColdestFMem(2, skip p0) = %v, want %v", cold, []PageID{p[1], p[2]})
	}
	// dst is appended to, not replaced.
	if got := fmem.AppendColdestFMem([]PageID{99}, ids, 1, nil); len(got) != 2 || got[0] != 99 {
		t.Errorf("AppendColdestFMem should append to dst, got %v", got)
	}
}

func TestHotSplit(t *testing.T) {
	counts := []uint64{50, 3, 0, 200}
	// With every page in SMem the promotions are the whole hot set in
	// rank order; with every page in FMem the demotions are the whole
	// cold set, coldest first.
	smem, ids, p := hotSystem(t, TierSMem, counts...)
	fmem, _, _ := hotSystem(t, TierFMem, counts...)
	split := func(capacity int) (hot, cold []PageID) {
		hot, none := smem.HotSplit(ids, capacity, nil, nil)
		if len(none) != 0 {
			t.Errorf("HotSplit(%d) demoted SMem pages %v", capacity, none)
		}
		none, cold = fmem.HotSplit(ids, capacity, nil, nil)
		if len(none) != 0 {
			t.Errorf("HotSplit(%d) promoted FMem pages %v", capacity, none)
		}
		return hot, cold
	}
	hot, cold := split(2)
	if !slices.Equal(hot, []PageID{p[3], p[0]}) {
		t.Errorf("hot = %v, want %v", hot, []PageID{p[3], p[0]})
	}
	if !slices.Equal(cold, []PageID{p[2], p[1]}) {
		t.Errorf("cold = %v, want %v (coldest first)", cold, []PageID{p[2], p[1]})
	}
	for _, tc := range []struct{ capacity, hot, cold int }{{0, 0, 4}, {-3, 0, 4}, {10, 4, 0}} {
		if hot, cold := split(tc.capacity); len(hot) != tc.hot || len(cold) != tc.cold {
			t.Errorf("HotSplit(%d) sizes = %d/%d, want %d/%d",
				tc.capacity, len(hot), len(cold), tc.hot, tc.cold)
		}
	}
}

// Property: HotSplit promotes only SMem pages and demotes only FMem pages,
// never both for one page; its hot set (promotions plus the FMem pages it
// keeps) has min(capacity, pages) pages; and every hot page's bin is >=
// every demoted page's bin.
func TestHotSplitProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		counts := make([]uint64, n)
		for i := range counts {
			counts[i] = uint64(rng.Intn(1000))
		}
		sys, ids, pages := hotSystem(t, TierSMem, counts...)
		sys.BeginTick(time.Hour)
		for _, pid := range pages {
			if rng.Intn(2) == 0 && sys.Migrate(pid, TierFMem) != nil {
				return false
			}
		}
		capacity := rng.Intn(n + 10)
		promote, demote := sys.HotSplit(ids, capacity, nil, nil)
		demoted := make(map[PageID]bool, len(demote))
		maxDemoteBin := -1
		for _, pid := range demote {
			if !sys.PageInFMem(pid) || demoted[pid] {
				return false
			}
			demoted[pid] = true
			maxDemoteBin = max(maxDemoteBin, BinOf(sys.PageHotness(pid)))
		}
		hot := 0
		for _, pid := range pages {
			if sys.PageInFMem(pid) && !demoted[pid] {
				hot++
				if BinOf(sys.PageHotness(pid)) < maxDemoteBin {
					return false
				}
			}
		}
		for _, pid := range promote {
			if sys.PageInFMem(pid) || BinOf(sys.PageHotness(pid)) < maxDemoteBin {
				return false
			}
			hot++
		}
		return hot == min(capacity, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// opStream decodes test operations from bytes; an exhausted stream reads
// as zeros.
type opStream []byte

func (o *opStream) next() int {
	if len(*o) == 0 {
		return 0
	}
	b := (*o)[0]
	*o = (*o)[1:]
	return int(b)
}

// pid picks an allocated page.
func (o *opStream) pid(sys *System) PageID {
	return PageID((o.next()<<8 | o.next()) % sys.NumPages())
}

// runHotIndexOps drives a system through the operations data encodes —
// workload attaches of arbitrary page counts, batched samples, small and
// huge hotness increments, single and deep (>= 64) aging runs in lazy and eager mode,
// migrations and exchanges — and after every operation checks that the
// hotness index files each page exactly and that every ranked query reads
// the same pages, in the same order, as the reference rebuild.
func runHotIndexOps(t *testing.T, data []byte) {
	t.Helper()
	cfg := testConfig()
	cfg.FMemBytes = 150 * cfg.PageSize
	cfg.SMemBytes = 900 * cfg.PageSize
	cfg.MigrationBandwidth = 1 << 40
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddWorkload(70*cfg.PageSize, TierFMem); err != nil {
		t.Fatal(err)
	}
	// want models every page's effective hotness with plain arithmetic.
	want := make([]uint64, sys.NumPages())
	add := func(pid PageID, delta uint64) {
		sys.AddHotness(pid, delta)
		want[pid] += delta
	}
	ops := opStream(data)
	for step := 0; len(ops) > 0; step++ {
		switch ops.next() % 8 {
		case 0: // attach: 1..256 pages, FMem- or SMem-preferred
			tier := TierFMem
			if ops.next()%2 == 1 {
				tier = TierSMem
			}
			if _, err := sys.AddWorkload(int64(1+ops.next())*cfg.PageSize, tier); err == nil {
				want = append(want, make([]uint64, sys.NumPages()-len(want))...)
			} // else the system is full
		case 1: // a batch of sampled accesses, repeats included
			for n := 1 + ops.next()%16; n > 0; n-- {
				pid := ops.pid(sys)
				want[pid]++
				if sys.AddSample(pid) != sys.PageInFMem(pid) {
					t.Fatalf("step %d: AddSample(%d) misreports the tier", step, pid)
				}
			}
		case 2: // a huge increment, past the top bin's 2^30 floor
			add(ops.pid(sys), uint64(1)<<(ops.next()%40)+uint64(ops.next()))
		case 3: // aging: one pass, or a deep run that zeroes every counter
			n := 1
			if ops.next()%4 == 0 {
				n = 1 + ops.next()%80
			}
			for ; n > 0; n-- {
				sys.AgeHotness()
				for pid := range want {
					want[pid] >>= 1
				}
			}
		case 4: // switch lazy <-> eager aging
			sys.SetReference(!sys.reference)
		case 5:
			sys.BeginTick(time.Second)
			pid := ops.pid(sys)
			to := TierFMem
			if sys.PageInFMem(pid) {
				to = TierSMem
			}
			_ = sys.Migrate(pid, to) // a full tier refuses
		case 6:
			sys.BeginTick(time.Second)
			var promote, demote []PageID
			for n := ops.next() % 12; n > 0; n-- {
				promote = append(promote, ops.pid(sys))
				demote = append(demote, ops.pid(sys))
			}
			sys.Exchange(promote, demote)
		case 7: // one access, or a zero increment that changes nothing
			add(ops.pid(sys), uint64(ops.next()%2))
		}
		for pid, h := range want {
			if got := sys.PageHotness(PageID(pid)); got != h {
				t.Fatalf("step %d: page %d hotness %d, want %d", step, pid, got, h)
			}
		}
		checkHotIndex(t, sys, ops.next())
		if t.Failed() {
			t.Fatalf("after step %d", step)
		}
	}
}

// checkHotIndex asserts that the index files every page in the bin of its
// effective hotness with matching per-workload counts, and that every
// ranked query over several workload orders equals the reference rebuild.
// seed varies the capacities, lengths and skip set queried.
func checkHotIndex(t *testing.T, sys *System, seed int) {
	t.Helper()
	for w := 0; w < sys.NumWorkloads(); w++ {
		var want [NumBins]int
		for _, pid := range sys.WorkloadPages(WorkloadID(w)) {
			b := BinOf(sys.PageHotness(pid))
			want[b]++
			for bin := range sys.bins {
				if set := sys.bins[bin][pid>>6]&(1<<(uint(pid)&63)) != 0; set != (bin == b) {
					t.Fatalf("page %d (hotness %d): bin %d bit = %v, page belongs in bin %d",
						pid, sys.PageHotness(pid), bin, set, b)
				}
			}
		}
		if sys.binPages[w] != want {
			t.Fatalf("workload %d bin counts %v, want %v", w, sys.binPages[w], want)
		}
	}

	n := sys.NumWorkloads()
	var orders [][]WorkloadID
	all, rev := make([]WorkloadID, n), make([]WorkloadID, n)
	for w := range all {
		all[w], rev[n-1-w] = WorkloadID(w), WorkloadID(w)
		orders = append(orders, []WorkloadID{WorkloadID(w)})
	}
	orders = append(orders, all, rev)
	if n >= 3 {
		orders = append(orders, []WorkloadID{2, 0}) // e.g. [BE2, LC]
	}
	total := sys.NumPages()
	skip := func(pid PageID) bool { return (int(pid)+seed)%3 == 0 }
	sentinel := func() []PageID { return []PageID{-1} } // dst must be appended to
	for _, ids := range orders {
		if got, want := sys.indexBinCounts(ids), sys.naiveBinCounts(ids); got != want {
			t.Errorf("ids %v: BinCounts %v, want %v", ids, got, want)
		}
		for _, capacity := range []int{-1, 0, 1, seed, sys.FMemCapacityPages(), total / 2, total + 5} {
			p, d := sys.indexHotSplit(ids, capacity, sentinel(), sentinel())
			wp, wd := sys.naiveHotSplit(ids, capacity, sentinel(), sentinel())
			if !slices.Equal(p, wp) || !slices.Equal(d, wd) {
				t.Errorf("ids %v capacity %d: HotSplit = %v / %v, want %v / %v", ids, capacity, p, d, wp, wd)
			}
		}
		for _, k := range []int{1, 1 + seed%7, seed, total} {
			if got, want := sys.indexHottestSMem(sentinel(), ids, k), sys.naiveHottestSMem(sentinel(), ids, k); !slices.Equal(got, want) {
				t.Errorf("ids %v: AppendHottestSMem(%d) = %v, want %v", ids, k, got, want)
			}
			for _, sk := range []func(PageID) bool{nil, skip} {
				if got, want := sys.indexColdestFMem(sentinel(), ids, k, sk), sys.naiveColdestFMem(sentinel(), ids, k, sk); !slices.Equal(got, want) {
					t.Errorf("ids %v: AppendColdestFMem(%d, skip %v) = %v, want %v", ids, k, sk != nil, got, want)
				}
			}
		}
	}
}

// TestHotIndexMatchesNaiveRanking runs random operation streams through
// runHotIndexOps.
func TestHotIndexMatchesNaiveRanking(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 300+rng.Intn(300))
		rng.Read(data)
		runHotIndexOps(t, data)
	}
}

// FuzzHotIndex runs fuzzer-chosen operation streams through
// runHotIndexOps.
func FuzzHotIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 200, 1, 8, 0, 1, 2, 1, 0, 3, 0, 60, 2, 33, 0, 9, 0, 3, 7, 0, 4, 3, 1})
	f.Add([]byte{2, 0, 0, 39, 255, 3, 0, 70, 2, 0, 1, 35, 0, 3, 1, 4, 3, 0, 64, 5, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		runHotIndexOps(t, data)
	})
}
