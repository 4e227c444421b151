// Package mem models the two-tier memory system of the paper: a small fast
// tier (FMem, local DRAM) and a large slow tier (SMem, CXL-emulated remote
// DRAM). It tracks page placement per workload, enforces tier capacities,
// and meters page migrations against a configurable bandwidth budget — the
// same constraint that bounds MTAT's action space to ±M/(2t) (Eq. 1).
//
// Pages are fixed-size bookkeeping units; the paper migrates 4 KiB pages,
// and the simulator defaults to 4 MiB units purely to coarsen bookkeeping
// (capacities and RSS values keep the paper's byte sizes).
package mem

import (
	"fmt"
	"math/bits"
	"time"
)

// Tier identifies a memory tier.
type Tier int

// Memory tiers. Enums start at one so the zero value is detectably invalid.
const (
	TierFMem Tier = iota + 1 // fast tier (local DRAM)
	TierSMem                 // slow tier (CXL / remote DRAM)
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierFMem:
		return "FMem"
	case TierSMem:
		return "SMem"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// WorkloadID identifies a registered workload within a System.
type WorkloadID int

// PageID indexes a page within a System. IDs are dense, starting at 0, in
// allocation order.
type PageID int

// Page is the per-page bookkeeping record.
type Page struct {
	Owner WorkloadID
	Tier  Tier
	// Hotness is the PEBS-sampled access count. The pebs package
	// increments it; histogram aging halves it.
	Hotness uint64
}

// Config describes the memory system geometry and costs.
type Config struct {
	// PageSize is the bookkeeping unit in bytes. Must be > 0.
	PageSize int64
	// FMemBytes and SMemBytes are tier capacities. Must be > 0.
	FMemBytes int64
	SMemBytes int64
	// FMemLatency and SMemLatency are per-access latencies (the paper
	// measures 73 ns local and 202 ns CXL-emulated).
	FMemLatency time.Duration
	SMemLatency time.Duration
	// MigrationBandwidth is the maximum data-movement capacity M of the
	// tiered memory subsystem in bytes/s (Eq. 1's M). This is a capacity
	// bound, not typical usage: the paper's prototype consumes ~4 GB/s
	// on average during partition replacement (§5.5) on a DDR4-3200
	// single-channel module whose peak is 25.6 GB/s.
	MigrationBandwidth int64
}

// DefaultConfig mirrors the paper's testbed (§5): 32 GiB FMem, 256 GiB
// SMem, 73/202 ns access latencies, and a 10 GB/s migration capacity
// (read+write on both tiers consumes roughly 40% of the 25.6 GB/s
// channel peak).
func DefaultConfig() Config {
	const gib = int64(1) << 30
	return Config{
		PageSize:           4 << 20,
		FMemBytes:          32 * gib,
		SMemBytes:          256 * gib,
		FMemLatency:        73 * time.Nanosecond,
		SMemLatency:        202 * time.Nanosecond,
		MigrationBandwidth: 10 * 1000 * 1000 * 1000,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.PageSize <= 0 {
		return fmt.Errorf("mem: PageSize must be > 0, got %d", c.PageSize)
	}
	if c.FMemBytes <= 0 {
		return fmt.Errorf("mem: FMemBytes must be > 0, got %d", c.FMemBytes)
	}
	if c.SMemBytes <= 0 {
		return fmt.Errorf("mem: SMemBytes must be > 0, got %d", c.SMemBytes)
	}
	if c.FMemLatency <= 0 || c.SMemLatency <= 0 {
		return fmt.Errorf("mem: tier latencies must be > 0")
	}
	if c.SMemLatency < c.FMemLatency {
		return fmt.Errorf("mem: SMemLatency (%v) must be >= FMemLatency (%v)",
			c.SMemLatency, c.FMemLatency)
	}
	if c.MigrationBandwidth <= 0 {
		return fmt.Errorf("mem: MigrationBandwidth must be > 0, got %d", c.MigrationBandwidth)
	}
	return nil
}

// workloadAccount tracks per-workload placement counts.
type workloadAccount struct {
	total int    // pages allocated
	fmem  int    // pages currently in FMem
	moves uint64 // migrations of this workload's pages, ever
}

// System is the tiered memory state. It is not safe for concurrent use;
// the simulator drives it from a single goroutine.
//
// Per-page state lives in dense struct-of-arrays storage: an owner array,
// a hotness array with per-page aging epochs, and a one-bit-per-page FMem
// occupancy bitset. Pages are never freed (workloads stay attached for a
// run's lifetime), so the dense arrays double as the allocator: PageIDs
// are indices assigned in allocation order, and each workload's pages
// form one contiguous PageID range. Hotness aging is lazy — see
// AgeHotness. The hotness index (hotness.go) keeps every page filed in
// its exponential histogram bin as counts change.
type System struct {
	cfg      Config
	fmemCap  int // capacity in pages
	smemCap  int
	fmemUsed int
	smemUsed int
	// Dense per-page state (kept parallel, indexed by PageID).
	owners   []WorkloadID
	hot      []uint64 // hotness counters, decayed to epoch hotEpoch[i]
	hotEpoch []uint32 // aging epoch at which hot[i] was last folded
	fmemBits []uint64 // occupancy bitset: bit set == FMem-resident
	// epoch is the global aging epoch; a page's effective hotness is
	// hot[i] >> (epoch - hotEpoch[i]).
	epoch uint32
	// bins and binPages are the hotness index: bins[b] has bit pid set
	// iff BinOf(PageHotness(pid)) == b, and binPages[w][b] counts w's
	// pages in bin b.
	bins     [NumBins][]uint64
	binPages [][NumBins]int
	// reference selects the retained reference paths (SetReference): a
	// full O(pages) sweep per AgeHotness and a per-call histogram rebuild
	// for every ranked query. The differential harness (internal/simtest)
	// runs scenarios in both modes and asserts identical results.
	reference  bool
	refBins    [NumBins][]PageID // reference-path bins, reused across rebuilds
	accounts   []workloadAccount
	byOwner    [][]PageID // page IDs per workload, allocation order
	tickLeft   int64      // migration bytes remaining this tick
	migrated   int64      // cumulative migrated bytes
	migrations int64      // cumulative migrated pages
	promotions int64      // cumulative pages moved to FMem
	demotions  int64      // cumulative pages moved to SMem
	agings     int64      // cumulative AgeHotness passes (histogram decays)
}

// NewSystem returns a System with the given configuration.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &System{
		cfg:     cfg,
		fmemCap: int(cfg.FMemBytes / cfg.PageSize),
		smemCap: int(cfg.SMemBytes / cfg.PageSize),
	}, nil
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// SetReference switches the system to its retained reference paths: each
// AgeHotness call halves every counter in a full sweep instead of bumping
// the lazy-aging epoch, and every ranked query (HotSplit,
// AppendHottestSMem, AppendColdestFMem, BinCounts) rebuilds a histogram
// over the pages it ranks instead of reading the hotness index. Both modes
// produce identical hotness values and identical page selections; the
// reference paths are the differential-testing oracle and the baseline
// the corebench suite measures speedups against. Call it before the first
// AgeHotness; switching is safe at any point (the sweep folds outstanding
// epochs first, and the index is kept in both modes), but mid-run
// switches make perf numbers meaningless.
func (s *System) SetReference(ref bool) { s.reference = ref }

// FMemCapacityPages returns the FMem capacity in pages.
func (s *System) FMemCapacityPages() int { return s.fmemCap }

// SMemCapacityPages returns the SMem capacity in pages.
func (s *System) SMemCapacityPages() int { return s.smemCap }

// FMemFreePages returns the number of unallocated FMem pages.
func (s *System) FMemFreePages() int { return s.fmemCap - s.fmemUsed }

// SMemFreePages returns the number of unallocated SMem pages.
func (s *System) SMemFreePages() int { return s.smemCap - s.smemUsed }

// PagesToBytes converts a page count to bytes under this configuration.
func (s *System) PagesToBytes(pages int) int64 {
	return int64(pages) * s.cfg.PageSize
}

// BytesToPages converts bytes to whole pages (rounding up).
func (s *System) BytesToPages(b int64) int {
	if b <= 0 {
		return 0
	}
	return int((b + s.cfg.PageSize - 1) / s.cfg.PageSize)
}

// AddWorkload registers a workload with rssBytes of memory, placing pages
// according to preferred: TierFMem fills FMem first and overflows to SMem;
// TierSMem allocates everything in SMem. It returns the new workload ID.
func (s *System) AddWorkload(rssBytes int64, preferred Tier) (WorkloadID, error) {
	if rssBytes <= 0 {
		return 0, fmt.Errorf("mem: workload RSS must be > 0, got %d", rssBytes)
	}
	if preferred != TierFMem && preferred != TierSMem {
		return 0, fmt.Errorf("mem: invalid preferred tier %v", preferred)
	}
	n := s.BytesToPages(rssBytes)
	if n > s.FMemFreePages()+s.SMemFreePages() {
		return 0, fmt.Errorf("mem: workload needs %d pages, only %d free",
			n, s.FMemFreePages()+s.SMemFreePages())
	}
	id := WorkloadID(len(s.accounts))
	s.accounts = append(s.accounts, workloadAccount{total: n})
	lo := len(s.owners)
	s.byOwner = append(s.byOwner, make([]PageID, n))
	s.hot = append(s.hot, make([]uint64, n)...)
	words := (lo + n + 63) >> 6
	s.fmemBits = append(s.fmemBits, make([]uint64, words-len(s.fmemBits))...)
	s.addToIndex(id, lo, n, words)
	for i := 0; i < n; i++ {
		tier := TierSMem
		if preferred == TierFMem && s.fmemUsed < s.fmemCap {
			tier = TierFMem
		}
		if tier == TierSMem && s.smemUsed >= s.smemCap {
			tier = TierFMem // SMem exhausted; spill to FMem
		}
		pid := PageID(lo + i)
		s.owners = append(s.owners, id)
		s.hotEpoch = append(s.hotEpoch, s.epoch)
		s.byOwner[id][i] = pid
		if tier == TierFMem {
			s.setFMemBit(pid)
			s.fmemUsed++
			s.accounts[id].fmem++
		} else {
			s.smemUsed++
		}
	}
	return id, nil
}

// setFMemBit / clearFMemBit / inFMem manipulate the occupancy bitset.
func (s *System) setFMemBit(pid PageID)   { s.fmemBits[uint(pid)>>6] |= 1 << (uint(pid) & 63) }
func (s *System) clearFMemBit(pid PageID) { s.fmemBits[uint(pid)>>6] &^= 1 << (uint(pid) & 63) }
func (s *System) inFMem(pid PageID) bool {
	return s.fmemBits[uint(pid)>>6]&(1<<(uint(pid)&63)) != 0
}

// NumWorkloads returns the number of registered workloads.
func (s *System) NumWorkloads() int { return len(s.accounts) }

// NumPages returns the total number of allocated pages.
func (s *System) NumPages() int { return len(s.owners) }

// Page returns a copy of the page record for pid, with the hotness
// counter decayed to the current aging epoch.
func (s *System) Page(pid PageID) Page {
	return Page{Owner: s.owners[pid], Tier: s.PageTier(pid), Hotness: s.PageHotness(pid)}
}

// PageTier returns pid's resident tier. It is the cheap accessor hot
// paths use instead of Page when only the tier matters.
func (s *System) PageTier(pid PageID) Tier {
	if s.inFMem(pid) {
		return TierFMem
	}
	return TierSMem
}

// PageInFMem reports whether pid is FMem-resident (a single bitset probe).
func (s *System) PageInFMem(pid PageID) bool { return s.inFMem(pid) }

// PageOwner returns the workload owning pid.
func (s *System) PageOwner(pid PageID) WorkloadID { return s.owners[pid] }

// PageHotness returns pid's access counter decayed to the current aging
// epoch — the value an eager aging sweep would have left in place.
func (s *System) PageHotness(pid PageID) uint64 {
	v := s.hot[pid]
	if d := s.epoch - s.hotEpoch[pid]; d != 0 {
		if d >= 64 {
			return 0
		}
		v >>= d
	}
	return v
}

// WorkloadPages returns the page IDs owned by w in allocation order. The
// returned slice is owned by the System and must not be mutated.
func (s *System) WorkloadPages(w WorkloadID) []PageID { return s.byOwner[w] }

// WorkloadRange returns the PageID range [lo, hi) of w's pages, which is
// never empty. A workload's pages are allocated together, so they are
// exactly that range, in allocation order: WorkloadPages(w)[i] == lo + i.
func (s *System) WorkloadRange(w WorkloadID) (lo, hi PageID) {
	p := s.byOwner[w]
	return p[0], p[0] + PageID(len(p))
}

// FMemWeight returns the sum of weights[pid-lo] over w's FMem-resident
// pages pid, where [lo, hi) is WorkloadRange(w) and len(weights) is
// hi-lo. It adds in ascending PageID order, the order a loop over
// WorkloadPages(w) adds in, so the float is the same bit for bit; it
// reads the occupancy bitset a word at a time, so pages in SMem cost
// nothing.
func (s *System) FMemWeight(w WorkloadID, weights []float64) float64 {
	lo, hi := s.span(w)
	weights = weights[:hi-lo]
	var sum float64
	for i := lo >> 6; i <= (hi-1)>>6; i++ {
		word := s.fmemBits[i]
		if i == lo>>6 {
			word &= ^uint64(0) << (uint(lo) & 63)
		}
		if i == (hi-1)>>6 {
			word &= ^uint64(0) >> (63 - uint(hi-1)&63)
		}
		for ; word != 0; word &= word - 1 {
			sum += weights[i<<6|bits.TrailingZeros64(word)-lo]
		}
	}
	return sum
}

// TotalPages returns the number of pages allocated to w.
func (s *System) TotalPages(w WorkloadID) int { return s.accounts[w].total }

// FMemPages returns the number of w's pages currently in FMem.
func (s *System) FMemPages(w WorkloadID) int { return s.accounts[w].fmem }

// PlacementVersion returns a counter that changes whenever one of w's
// pages changes tier. Callers that derive a value from w's placement cache
// it against this version.
func (s *System) PlacementVersion(w WorkloadID) uint64 { return s.accounts[w].moves }

// FMemUsageRatio returns the fraction of w's pages resident in FMem — the
// "FMem Usage Ratio" state input of the RL model (§3.2.1).
func (s *System) FMemUsageRatio(w WorkloadID) float64 {
	a := s.accounts[w]
	if a.total == 0 {
		return 0
	}
	return float64(a.fmem) / float64(a.total)
}

// AddHotness adds delta to a page's access counter, first folding any
// aging epochs the page has not yet absorbed, and refiles the page in the
// hotness index when its bin changes.
func (s *System) AddHotness(pid PageID, delta uint64) {
	old := s.hot[pid]
	if s.hotEpoch[pid] != s.epoch {
		old = s.fold(pid)
	}
	v := old + delta
	s.hot[pid] = v
	if old^v > old&v { // the top set bit moved: the bin may have changed
		s.rebin(pid, BinOf(old), BinOf(v))
	}
}

// AddSample adds one sampled access to pid, as AddHotness(pid, 1) does,
// and reports whether pid is FMem-resident: the two things the PEBS
// sampler does per sample, in one call. The common case, an up-to-date
// counter that does not reach a power of two so that its bin stays put,
// needs no further call.
func (s *System) AddSample(pid PageID) (inFMem bool) {
	if v := s.hot[pid]; s.hotEpoch[pid] == s.epoch && v&(v+1) != 0 {
		s.hot[pid] = v + 1
	} else {
		s.AddHotness(pid, 1)
	}
	return s.inFMem(pid)
}

// fold applies pid's outstanding aging epochs to its stored counter and
// returns the result.
func (s *System) fold(pid PageID) uint64 {
	v := s.hot[pid]
	if d := s.epoch - s.hotEpoch[pid]; d >= 64 {
		v = 0
	} else {
		v >>= d
	}
	s.hot[pid] = v
	s.hotEpoch[pid] = s.epoch
	return v
}

// AgeHotness halves every page's access counter — the per-interval aging
// step of §3.3.2. The default implementation is lazy: it bumps a global
// epoch in O(1) and pages fold the outstanding halvings on their next
// touch or read (right shifts compose, so folding later is exact). The
// reference mode (SetReference) performs the seed implementation's full
// O(pages) sweep instead; both yield identical hotness values. Either way
// the hotness index then moves every page down one bin in O(bitset words).
func (s *System) AgeHotness() {
	if s.reference {
		for i := range s.hot {
			if s.hotEpoch[i] != s.epoch {
				s.fold(PageID(i))
			}
			s.hot[i] >>= 1
		}
	} else {
		s.epoch++
	}
	s.agings++
	s.ageIndex()
}

// HotnessAgings returns how many AgeHotness passes (histogram decay
// steps) have run since construction.
func (s *System) HotnessAgings() int64 { return s.agings }

// BeginTick resets the migration bandwidth budget for a tick of dt.
func (s *System) BeginTick(dt time.Duration) {
	s.tickLeft = int64(float64(s.cfg.MigrationBandwidth) * dt.Seconds())
}

// MigrationBudgetPages returns how many pages can still migrate this tick.
func (s *System) MigrationBudgetPages() int {
	if s.tickLeft <= 0 {
		return 0
	}
	return int(s.tickLeft / s.cfg.PageSize)
}

// MigratedBytes returns cumulative bytes migrated since construction.
func (s *System) MigratedBytes() int64 { return s.migrated }

// MigratedPages returns cumulative pages migrated since construction.
func (s *System) MigratedPages() int64 { return s.migrations }

// PromotedPages returns cumulative pages moved into FMem since
// construction.
func (s *System) PromotedPages() int64 { return s.promotions }

// DemotedPages returns cumulative pages moved into SMem since
// construction.
func (s *System) DemotedPages() int64 { return s.demotions }

// Migrate moves page pid to tier to. It fails if the destination tier is
// full or the migration bandwidth budget for this tick is exhausted.
// Migrating a page to its current tier is a no-op consuming no budget.
func (s *System) Migrate(pid PageID, to Tier) error {
	if to != TierFMem && to != TierSMem {
		return fmt.Errorf("mem: invalid destination tier %v", to)
	}
	inF := s.inFMem(pid)
	if (to == TierFMem) == inF {
		return nil
	}
	if s.tickLeft < s.cfg.PageSize {
		return ErrBandwidthExhausted
	}
	owner := s.owners[pid]
	if to == TierFMem {
		if s.fmemUsed >= s.fmemCap {
			return ErrTierFull
		}
		s.fmemUsed++
		s.smemUsed--
		s.accounts[owner].fmem++
		s.promotions++
		s.setFMemBit(pid)
	} else {
		if s.smemUsed >= s.smemCap {
			return ErrTierFull
		}
		s.smemUsed++
		s.fmemUsed--
		s.accounts[owner].fmem--
		s.demotions++
		s.clearFMemBit(pid)
	}
	s.accounts[owner].moves++
	s.tickLeft -= s.cfg.PageSize
	s.migrated += s.cfg.PageSize
	s.migrations++
	return nil
}

// Exchange migrates pages in demote to SMem and pages in promote to FMem,
// interleaving demotions ahead of promotions so promotions find free FMem.
// It stops when bandwidth or capacity runs out and returns the number of
// pages actually demoted and promoted.
func (s *System) Exchange(promote, demote []PageID) (promoted, demoted int) {
	pi, di := 0, 0
	for pi < len(promote) || di < len(demote) {
		progressed := false
		if di < len(demote) {
			if pid := demote[di]; s.inFMem(pid) {
				if err := s.Migrate(pid, TierSMem); err == nil {
					demoted++
					progressed = true
				}
			}
			di++
		}
		if pi < len(promote) {
			if pid := promote[pi]; s.inFMem(pid) {
				pi++ // already resident; skip without consuming budget
			} else if err := s.Migrate(pid, TierFMem); err == nil {
				promoted++
				progressed = true
				pi++
			} else if err == ErrTierFull && di < len(demote) {
				// Retry after the next demotion frees a slot.
			} else {
				pi++
			}
		}
		if !progressed && di >= len(demote) && pi >= len(promote) {
			break
		}
		if s.MigrationBudgetPages() == 0 {
			break
		}
	}
	return promoted, demoted
}

// Sentinel errors returned by Migrate.
var (
	ErrTierFull           = fmt.Errorf("mem: destination tier is full")
	ErrBandwidthExhausted = fmt.Errorf("mem: migration bandwidth exhausted for this tick")
)
