package damon

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/tieredmem/mtat/internal/mem"
)

func testConfig() Config {
	return Config{MinRegions: 4, MaxRegions: 64, MergeThreshold: 0.1, Seed: 1}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{MinRegions: 0, MaxRegions: 10, MergeThreshold: 0.1},
		{MinRegions: 10, MaxRegions: 5, MergeThreshold: 0.1},
		{MinRegions: 1, MaxRegions: 10, MergeThreshold: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(10, 10, testConfig()); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := NewMonitor(0, 100, Config{}); err == nil {
		t.Error("invalid config accepted")
	}
	m, err := NewMonitor(0, 100, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.NumRegions(); got != 4 {
		t.Errorf("initial regions = %d, want MinRegions 4", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// Tiny range: fewer pages than MinRegions still works.
	tiny, err := NewMonitor(0, 2, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tiny.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRecordAccessAttribution(t *testing.T) {
	m, _ := NewMonitor(100, 200, testConfig())
	m.RecordAccess(100) // first region
	m.RecordAccess(199) // last region
	m.RecordAccess(99)  // outside: ignored
	m.RecordAccess(200) // outside: ignored
	regions := m.Regions()
	if regions[0].Accesses != 1 {
		t.Errorf("first region accesses = %d, want 1", regions[0].Accesses)
	}
	if last := regions[len(regions)-1]; last.Accesses != 1 {
		t.Errorf("last region accesses = %d, want 1", last.Accesses)
	}
	var total uint64
	for _, r := range regions {
		total += r.Accesses
	}
	if total != 2 {
		t.Errorf("total attributed = %d, want 2 (out-of-range ignored)", total)
	}
}

func TestAggregateConvergesOnHotSpot(t *testing.T) {
	// 1000 pages; pages [0, 50) receive 90% of accesses. After several
	// aggregation intervals the monitor must resolve the hot spot: the
	// top-50 hottest pages should be mostly from the true hot range.
	m, _ := NewMonitor(0, 1000, Config{MinRegions: 4, MaxRegions: 128, MergeThreshold: 0.15, Seed: 3})
	rng := rand.New(rand.NewSource(7))
	for interval := 0; interval < 20; interval++ {
		for i := 0; i < 5000; i++ {
			var pid mem.PageID
			if rng.Float64() < 0.9 {
				pid = mem.PageID(rng.Intn(50))
			} else {
				pid = mem.PageID(rng.Intn(1000))
			}
			m.RecordAccess(pid)
		}
		m.Aggregate()
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("interval %d: %v", interval, err)
		}
	}
	hot := m.HottestPages(nil, 50)
	inHot := 0
	for _, pid := range hot {
		if pid < 50 {
			inHot++
		}
	}
	if inHot < 35 {
		t.Errorf("only %d/50 hottest pages fall in the true hot range", inHot)
	}
	// Bookkeeping stays bounded far below per-page tracking.
	if m.NumRegions() > 128 {
		t.Errorf("regions = %d, exceeds max", m.NumRegions())
	}
}

func TestColdestPages(t *testing.T) {
	m, _ := NewMonitor(0, 100, testConfig())
	// Heat the last quarter.
	for i := 0; i < 1000; i++ {
		m.RecordAccess(mem.PageID(75 + i%25))
	}
	m.Aggregate()
	cold := m.ColdestPages(nil, 10)
	for _, pid := range cold {
		if pid >= 75 {
			t.Errorf("cold page %d drawn from the hot range", pid)
		}
	}
	if got := m.HottestPages(nil, 0); len(got) != 0 {
		t.Errorf("HottestPages(0) = %v", got)
	}
	if got := m.ColdestPages(nil, 0); len(got) != 0 {
		t.Errorf("ColdestPages(0) = %v", got)
	}
}

// Property: under arbitrary access/aggregate sequences the regions always
// tile the range exactly and stay within bounds.
func TestMonitorInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 50 + rng.Intn(500)
		cfg := Config{
			MinRegions:     1 + rng.Intn(8),
			MaxRegions:     16 + rng.Intn(64),
			MergeThreshold: rng.Float64() * 0.5,
			Seed:           seed,
		}
		m, err := NewMonitor(0, mem.PageID(size), cfg)
		if err != nil {
			return false
		}
		for interval := 0; interval < 8; interval++ {
			n := rng.Intn(2000)
			for i := 0; i < n; i++ {
				m.RecordAccess(mem.PageID(rng.Intn(size)))
			}
			m.Aggregate()
			if m.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMergeRespectsMinRegions(t *testing.T) {
	// With no accesses at all every region looks identical; merging must
	// still stop at MinRegions.
	m, _ := NewMonitor(0, 1000, Config{MinRegions: 4, MaxRegions: 8, MergeThreshold: 0.5, Seed: 1})
	for i := 0; i < 10; i++ {
		m.Aggregate()
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if m.NumRegions() < 4 {
			t.Fatalf("regions fell to %d, below MinRegions", m.NumRegions())
		}
	}
}

// Attribution through the per-page region index must match a search over
// the regions, across aggregations that merge and split them.
func TestRecordAccessMatchesRegionSearch(t *testing.T) {
	const start, end = 37, 1000 // not word- or region-aligned
	m, err := NewMonitor(start, end, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for interval := 0; interval < 30; interval++ {
		want := make([]uint64, m.NumRegions())
		for i := 0; i < 2000; i++ {
			pid := mem.PageID(start + rng.Intn(end-start))
			if interval%3 == 0 {
				pid = mem.PageID(start + rng.Intn(50)) // a hot spot
			}
			m.RecordAccess(pid)
			for j, r := range m.Regions() {
				if pid >= r.Start && pid < r.End {
					want[j]++
				}
			}
		}
		for j, r := range m.Regions() {
			if r.Accesses != want[j] {
				t.Fatalf("interval %d region %d [%d,%d): %d accesses, want %d",
					interval, j, r.Start, r.End, r.Accesses, want[j])
			}
		}
		m.Aggregate()
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("interval %d: %v", interval, err)
		}
	}
}
