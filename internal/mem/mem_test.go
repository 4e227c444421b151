package mem

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// testConfig returns a small configuration: 8 FMem pages, 32 SMem pages,
// 1 MiB pages, budget of 4 pages per 1 s tick.
func testConfig() Config {
	const mib = int64(1) << 20
	return Config{
		PageSize:           mib,
		FMemBytes:          8 * mib,
		SMemBytes:          32 * mib,
		FMemLatency:        73 * time.Nanosecond,
		SMemLatency:        202 * time.Nanosecond,
		MigrationBandwidth: 4 * mib,
	}
}

func newTestSystem(t *testing.T) *System {
	t.Helper()
	s, err := NewSystem(testConfig())
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	valid := testConfig()
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero page size", func(c *Config) { c.PageSize = 0 }},
		{"zero fmem", func(c *Config) { c.FMemBytes = 0 }},
		{"zero smem", func(c *Config) { c.SMemBytes = 0 }},
		{"zero fmem latency", func(c *Config) { c.FMemLatency = 0 }},
		{"smem faster than fmem", func(c *Config) { c.SMemLatency = c.FMemLatency / 2 }},
		{"zero bandwidth", func(c *Config) { c.MigrationBandwidth = 0 }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			c := valid
			m.mut(&c)
			if err := c.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	if c.FMemBytes != 32<<30 || c.SMemBytes != 256<<30 {
		t.Errorf("DefaultConfig capacities = %d/%d, want 32 GiB / 256 GiB",
			c.FMemBytes, c.SMemBytes)
	}
}

func TestTierString(t *testing.T) {
	if TierFMem.String() != "FMem" || TierSMem.String() != "SMem" {
		t.Error("Tier.String() wrong for valid tiers")
	}
	if Tier(0).String() != "Tier(0)" {
		t.Errorf("Tier(0).String() = %q", Tier(0).String())
	}
}

func TestAddWorkloadFMemPreferred(t *testing.T) {
	s := newTestSystem(t)
	// 12 pages requested, 8 fit in FMem, 4 spill to SMem.
	id, err := s.AddWorkload(12<<20, TierFMem)
	if err != nil {
		t.Fatalf("AddWorkload: %v", err)
	}
	if got := s.TotalPages(id); got != 12 {
		t.Errorf("TotalPages = %d, want 12", got)
	}
	if got := s.FMemPages(id); got != 8 {
		t.Errorf("FMemPages = %d, want 8", got)
	}
	if got := s.FMemFreePages(); got != 0 {
		t.Errorf("FMemFreePages = %d, want 0", got)
	}
	if got := s.FMemUsageRatio(id); got != 8.0/12 {
		t.Errorf("FMemUsageRatio = %g, want %g", got, 8.0/12)
	}
}

func TestAddWorkloadSMemPreferred(t *testing.T) {
	s := newTestSystem(t)
	id, err := s.AddWorkload(5<<20, TierSMem)
	if err != nil {
		t.Fatalf("AddWorkload: %v", err)
	}
	if got := s.FMemPages(id); got != 0 {
		t.Errorf("FMemPages = %d, want 0", got)
	}
	if got := s.SMemFreePages(); got != 27 {
		t.Errorf("SMemFreePages = %d, want 27", got)
	}
}

func TestAddWorkloadValidation(t *testing.T) {
	s := newTestSystem(t)
	if _, err := s.AddWorkload(0, TierFMem); err == nil {
		t.Error("zero RSS accepted")
	}
	if _, err := s.AddWorkload(1<<20, Tier(0)); err == nil {
		t.Error("invalid tier accepted")
	}
	// Exceed total capacity (8 + 32 = 40 pages).
	if _, err := s.AddWorkload(41<<20, TierSMem); err == nil {
		t.Error("oversized workload accepted")
	}
}

func TestAddWorkloadRoundsUp(t *testing.T) {
	s := newTestSystem(t)
	id, err := s.AddWorkload((1<<20)+1, TierSMem)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.TotalPages(id); got != 2 {
		t.Errorf("TotalPages = %d, want 2 (rounded up)", got)
	}
}

func TestBytesPagesConversion(t *testing.T) {
	s := newTestSystem(t)
	if got := s.BytesToPages(0); got != 0 {
		t.Errorf("BytesToPages(0) = %d, want 0", got)
	}
	if got := s.BytesToPages(-5); got != 0 {
		t.Errorf("BytesToPages(-5) = %d, want 0", got)
	}
	if got := s.PagesToBytes(3); got != 3<<20 {
		t.Errorf("PagesToBytes(3) = %d, want %d", got, 3<<20)
	}
}

func TestMigrateBasic(t *testing.T) {
	s := newTestSystem(t)
	id, _ := s.AddWorkload(4<<20, TierSMem)
	s.BeginTick(time.Second) // 4 pages of budget
	pid := s.WorkloadPages(id)[0]
	if err := s.Migrate(pid, TierFMem); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if got := s.Page(pid).Tier; got != TierFMem {
		t.Errorf("page tier = %v, want FMem", got)
	}
	if got := s.FMemPages(id); got != 1 {
		t.Errorf("FMemPages = %d, want 1", got)
	}
	if got := s.MigratedPages(); got != 1 {
		t.Errorf("MigratedPages = %d, want 1", got)
	}
	if got := s.MigratedBytes(); got != 1<<20 {
		t.Errorf("MigratedBytes = %d, want %d", got, 1<<20)
	}
}

func TestMigrateNoOpSameTier(t *testing.T) {
	s := newTestSystem(t)
	id, _ := s.AddWorkload(2<<20, TierSMem)
	s.BeginTick(time.Second)
	pid := s.WorkloadPages(id)[0]
	if err := s.Migrate(pid, TierSMem); err != nil {
		t.Fatalf("same-tier migrate errored: %v", err)
	}
	if got := s.MigratedPages(); got != 0 {
		t.Errorf("no-op migration consumed budget: MigratedPages = %d", got)
	}
}

func TestMigrateBandwidthExhausted(t *testing.T) {
	s := newTestSystem(t)
	id, _ := s.AddWorkload(10<<20, TierSMem)
	s.BeginTick(time.Second) // 4 pages
	pages := s.WorkloadPages(id)
	var migrated int
	for _, pid := range pages {
		if err := s.Migrate(pid, TierFMem); err != nil {
			if !errors.Is(err, ErrBandwidthExhausted) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		migrated++
	}
	if migrated != 4 {
		t.Errorf("migrated %d pages in one tick, want 4 (bandwidth bound)", migrated)
	}
	// Budget refreshes on the next tick.
	s.BeginTick(time.Second)
	if err := s.Migrate(pages[4], TierFMem); err != nil {
		t.Errorf("migration after budget refresh failed: %v", err)
	}
}

func TestMigrateTierFull(t *testing.T) {
	s := newTestSystem(t)
	a, _ := s.AddWorkload(8<<20, TierFMem) // fills FMem
	b, _ := s.AddWorkload(2<<20, TierSMem)
	s.BeginTick(10 * time.Second)
	if err := s.Migrate(s.WorkloadPages(b)[0], TierFMem); !errors.Is(err, ErrTierFull) {
		t.Fatalf("Migrate into full tier: err = %v, want ErrTierFull", err)
	}
	// Demote one of a's pages, then the promote succeeds.
	if err := s.Migrate(s.WorkloadPages(a)[0], TierSMem); err != nil {
		t.Fatalf("demote: %v", err)
	}
	if err := s.Migrate(s.WorkloadPages(b)[0], TierFMem); err != nil {
		t.Fatalf("promote after demote: %v", err)
	}
}

func TestMigrateInvalidTier(t *testing.T) {
	s := newTestSystem(t)
	id, _ := s.AddWorkload(1<<20, TierSMem)
	s.BeginTick(time.Second)
	if err := s.Migrate(s.WorkloadPages(id)[0], Tier(7)); err == nil {
		t.Error("invalid tier accepted")
	}
}

func TestExchange(t *testing.T) {
	s := newTestSystem(t)
	a, _ := s.AddWorkload(8<<20, TierFMem) // fills FMem
	b, _ := s.AddWorkload(8<<20, TierSMem)
	s.BeginTick(2 * time.Second) // 8 pages of budget

	demote := s.WorkloadPages(a)[:3]
	promote := s.WorkloadPages(b)[:3]
	promoted, demoted := s.Exchange(promote, demote)
	if promoted != 3 || demoted != 3 {
		t.Fatalf("Exchange = (%d promoted, %d demoted), want (3, 3)", promoted, demoted)
	}
	if got := s.FMemPages(a); got != 5 {
		t.Errorf("workload a FMemPages = %d, want 5", got)
	}
	if got := s.FMemPages(b); got != 3 {
		t.Errorf("workload b FMemPages = %d, want 3", got)
	}
}

func TestExchangeBandwidthBounded(t *testing.T) {
	s := newTestSystem(t)
	a, _ := s.AddWorkload(8<<20, TierFMem)
	b, _ := s.AddWorkload(8<<20, TierSMem)
	s.BeginTick(time.Second) // only 4 pages of budget for 8 wanted moves

	promoted, demoted := s.Exchange(s.WorkloadPages(b)[:4], s.WorkloadPages(a)[:4])
	if promoted+demoted != 4 {
		t.Errorf("Exchange moved %d pages, want 4 (budget)", promoted+demoted)
	}
}

func TestExchangePromoteOnlyIntoFreeFMem(t *testing.T) {
	s := newTestSystem(t)
	id, _ := s.AddWorkload(8<<20, TierSMem)
	s.BeginTick(time.Second)
	promoted, demoted := s.Exchange(s.WorkloadPages(id)[:4], nil)
	if promoted != 4 || demoted != 0 {
		t.Errorf("Exchange = (%d, %d), want (4, 0)", promoted, demoted)
	}
}

func TestExchangeSkipsAlreadyPlaced(t *testing.T) {
	s := newTestSystem(t)
	id, _ := s.AddWorkload(4<<20, TierFMem)
	s.BeginTick(time.Second)
	// Promoting already-FMem pages and demoting already-SMem pages is free.
	promoted, demoted := s.Exchange(s.WorkloadPages(id)[:2], nil)
	if promoted != 0 || demoted != 0 {
		t.Errorf("Exchange of resident pages = (%d, %d), want (0, 0)", promoted, demoted)
	}
	if s.MigratedPages() != 0 {
		t.Errorf("resident exchange consumed budget: %d pages", s.MigratedPages())
	}
}

func TestHotnessAndAging(t *testing.T) {
	s := newTestSystem(t)
	id, _ := s.AddWorkload(2<<20, TierSMem)
	pid := s.WorkloadPages(id)[0]
	s.AddHotness(pid, 9)
	if got := s.Page(pid).Hotness; got != 9 {
		t.Errorf("Hotness = %d, want 9", got)
	}
	s.AgeHotness()
	if got := s.Page(pid).Hotness; got != 4 {
		t.Errorf("aged Hotness = %d, want 4", got)
	}
	s.AgeHotness()
	s.AgeHotness()
	s.AgeHotness()
	if got := s.Page(pid).Hotness; got != 0 {
		t.Errorf("fully aged Hotness = %d, want 0", got)
	}
}

func TestMultipleWorkloadAccountingIsolated(t *testing.T) {
	s := newTestSystem(t)
	a, _ := s.AddWorkload(4<<20, TierFMem)
	b, _ := s.AddWorkload(4<<20, TierFMem)
	if s.NumWorkloads() != 2 {
		t.Fatalf("NumWorkloads = %d, want 2", s.NumWorkloads())
	}
	if s.FMemPages(a) != 4 || s.FMemPages(b) != 4 {
		t.Fatalf("FMemPages = %d/%d, want 4/4", s.FMemPages(a), s.FMemPages(b))
	}
	s.BeginTick(time.Second)
	if err := s.Migrate(s.WorkloadPages(a)[0], TierSMem); err != nil {
		t.Fatal(err)
	}
	if s.FMemPages(a) != 3 {
		t.Errorf("a FMemPages = %d, want 3", s.FMemPages(a))
	}
	if s.FMemPages(b) != 4 {
		t.Errorf("b FMemPages changed to %d on a's migration", s.FMemPages(b))
	}
}

// Property: under arbitrary migration sequences, (1) per-tier usage equals
// the sum of per-workload placements, (2) usage never exceeds capacity,
// and (3) each workload's total page count is invariant.
func TestMigrationInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewSystem(testConfig())
		if err != nil {
			return false
		}
		nw := 1 + rng.Intn(3)
		totals := make([]int, nw)
		for i := 0; i < nw; i++ {
			pages := 1 + rng.Intn(8)
			pref := TierFMem
			if rng.Intn(2) == 0 {
				pref = TierSMem
			}
			id, err := s.AddWorkload(int64(pages)<<20, pref)
			if err != nil {
				return false
			}
			totals[id] = pages
		}
		for tick := 0; tick < 10; tick++ {
			s.BeginTick(time.Second)
			for i := 0; i < 8; i++ {
				pid := PageID(rng.Intn(s.NumPages()))
				to := TierFMem
				if rng.Intn(2) == 0 {
					to = TierSMem
				}
				_ = s.Migrate(pid, to) // errors are legal outcomes
			}
		}
		// Invariants.
		fmemSum, totalSum := 0, 0
		for w := 0; w < nw; w++ {
			id := WorkloadID(w)
			if s.TotalPages(id) != totals[w] {
				return false
			}
			fmemSum += s.FMemPages(id)
			totalSum += s.TotalPages(id)
		}
		fmemUsed := s.FMemCapacityPages() - s.FMemFreePages()
		smemUsed := s.SMemCapacityPages() - s.SMemFreePages()
		if fmemUsed != fmemSum {
			return false
		}
		if fmemUsed+smemUsed != totalSum {
			return false
		}
		if fmemUsed > s.FMemCapacityPages() || smemUsed > s.SMemCapacityPages() {
			return false
		}
		// Per-page recount agrees with the accounts.
		recount := make([]int, nw)
		for pid := 0; pid < s.NumPages(); pid++ {
			p := s.Page(PageID(pid))
			if p.Tier == TierFMem {
				recount[p.Owner]++
			}
		}
		for w := 0; w < nw; w++ {
			if recount[w] != s.FMemPages(WorkloadID(w)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// FMemWeight over ranges that start and end mid-word, span several words,
// fill exactly one, or hold a single page, each under every placement
// pattern below: the sum must equal a loop over the pages bit for bit.
func TestFMemWeightMidWordRanges(t *testing.T) {
	cfg := testConfig()
	cfg.FMemBytes = 512 * cfg.PageSize
	cfg.SMemBytes = 512 * cfg.PageSize
	cfg.MigrationBandwidth = 1 << 40
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []WorkloadID
	for _, pages := range []int64{3, 70, 64, 1, 130, 59} { // [0,3) [3,73) [73,137) [137,138) [138,268) [268,327)
		id, err := s.AddWorkload(pages*cfg.PageSize, TierSMem)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	patterns := []func(pid PageID) bool{
		func(PageID) bool { return false },
		func(PageID) bool { return true },
		func(pid PageID) bool { return pid%3 == 0 },
		func(pid PageID) bool { return pid&63 == 0 || pid&63 == 63 }, // word edges only
	}
	for p, inFMem := range patterns {
		s.BeginTick(time.Second)
		for pid := PageID(0); int(pid) < s.NumPages(); pid++ {
			to := TierSMem
			if inFMem(pid) {
				to = TierFMem
			}
			if err := s.Migrate(pid, to); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range ids {
			lo, hi := s.WorkloadRange(id)
			weights := make([]float64, hi-lo)
			var want float64
			for i := range weights {
				weights[i] = 1 / float64(7+3*i)
				if s.PageInFMem(lo + PageID(i)) {
					want += weights[i]
				}
			}
			if got := s.FMemWeight(id, weights); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("pattern %d workload %d [%d,%d): FMemWeight %v, page loop %v", p, id, lo, hi, got, want)
			}
		}
	}
}
