// Package pebs substitutes for Intel Processor Event-Based Sampling (§4 of
// the paper): it converts each workload's logical access stream into
// sampled per-page access counts, and tallies per-tick FMem/SMem access
// totals. The real PP-E samples MEM_LOAD_L3_MISS_RETIRED.{LOCAL,REMOTE}_DRAM
// events into PTE-linked counters; here, sampling is modeled as a Poisson
// thinning of the simulated access stream, which reproduces both the
// sampling rate and the sampling noise that the downstream histograms see.
package pebs

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"github.com/tieredmem/mtat/internal/dist"
	"github.com/tieredmem/mtat/internal/mem"
	"github.com/tieredmem/mtat/internal/rng"
)

// Sampler draws sampled page accesses and maintains per-tick tier access
// counters per workload. It is not safe for concurrent use.
type Sampler struct {
	sys  *mem.System
	rate float64
	seed int64
	// src draws the samples; rng is a math/rand.Rand on the same stream
	// for the Poisson count. In reference mode rng is math/rand's own
	// generator and draws everything (SetReference).
	src *rng.Source
	rng *rand.Rand

	// Per-tick, per-workload sampled access counts by tier.
	fmemTick []uint64
	smemTick []uint64
	// Per-tick sampled pages per workload (unique, in first-sample
	// order). Fault-driven policies like TPP promote on these.
	tickPages [][]mem.PageID
	// Per-page generation stamps: seen[pid] == gen means pid was already
	// sampled this tick. BeginTick bumps gen, so resetting the set is O(1)
	// instead of clearing a map.
	seen []uint32
	gen  uint32
	// Reference (seed) paths for the differential harness: map-backed
	// dedup and full-CDF distribution draws from math/rand
	// (SetReference).
	ref         bool
	tickPageSet map[mem.PageID]struct{}
	// draws is the scratch buffer for one call's distribution draws.
	draws []int
	// Cumulative sampled counts (never reset; used by overhead accounting).
	totalSamples uint64
}

// NewSampler returns a sampler over sys with the given sampling rate
// (fraction of accesses that produce a PEBS record, in (0, 1]), seeded
// deterministically from seed.
func NewSampler(sys *mem.System, rate float64, seed int64) (*Sampler, error) {
	if sys == nil {
		return nil, fmt.Errorf("pebs: sys must not be nil")
	}
	if rate <= 0 || rate > 1 || math.IsNaN(rate) {
		return nil, fmt.Errorf("pebs: rate must be in (0,1], got %g", rate)
	}
	src := rng.New(seed)
	return &Sampler{
		sys:  sys,
		rate: rate,
		seed: seed,
		src:  src,
		rng:  src.Rand(),
		gen:  1,
	}, nil
}

// Rate returns the sampling rate.
func (s *Sampler) Rate() float64 { return s.rate }

// TotalSamples returns the cumulative number of sampled accesses.
func (s *Sampler) TotalSamples() uint64 { return s.totalSamples }

// SetReference switches the sampler to its retained reference paths:
// per-tick page dedup through the original map, every draw from
// math/rand's own generator (rng.NewReference) instead of the inlinable
// copy, and every distribution draw through dist.SampleReference (the
// full binary search over a Zipf CDF instead of the guide table). Output
// is identical either way; the differential harness uses this as the
// oracle for the fast paths. Switching restarts the draws at the seed, so
// call it before the first RecordAccesses.
func (s *Sampler) SetReference(ref bool) {
	s.ref = ref
	if ref {
		s.src, s.rng = nil, rng.NewReference(s.seed)
		if s.tickPageSet == nil {
			s.tickPageSet = make(map[mem.PageID]struct{})
		}
	} else {
		s.src = rng.New(s.seed)
		s.rng = s.src.Rand()
	}
}

// BeginTick resets the per-tick tier counters. Call once per simulation
// tick before recording accesses.
func (s *Sampler) BeginTick() {
	n := s.sys.NumWorkloads()
	if len(s.fmemTick) < n {
		s.fmemTick = make([]uint64, n)
		s.smemTick = make([]uint64, n)
		old := s.tickPages
		s.tickPages = make([][]mem.PageID, n)
		copy(s.tickPages, old)
	}
	for i := 0; i < n; i++ {
		s.fmemTick[i] = 0
		s.smemTick[i] = 0
		s.tickPages[i] = s.tickPages[i][:0]
	}
	if s.ref {
		clear(s.tickPageSet)
		return
	}
	if np := s.sys.NumPages(); len(s.seen) < np {
		grown := make([]uint32, np)
		copy(grown, s.seen)
		s.seen = grown
	}
	s.gen++
	if s.gen == 0 { // wrapped: stamps from 4B ticks ago are stale
		clear(s.seen)
		s.gen = 1
	}
}

// RecordAccesses samples from n logical accesses by workload w, whose
// access popularity over its pages follows d (item ranks map onto the
// workload's pages in allocation order). Sampled accesses increment page
// hotness counters and the per-tick tier counters.
func (s *Sampler) RecordAccesses(w mem.WorkloadID, d dist.Distribution, n uint64) {
	if n == 0 {
		return
	}
	lo, hi := s.sys.WorkloadRange(w)
	pages := int(hi - lo)
	k := s.poisson(float64(n) * s.rate)
	// Draw every sample up front into the scratch buffer. Filing them
	// consumes no randomness, so the stream is the one a draw per sample
	// would consume.
	if uint64(cap(s.draws)) < k {
		s.draws = make([]int, k)
	}
	draws := s.draws[:k]
	if s.ref {
		for i := range draws {
			draws[i] = dist.SampleReference(d, s.rng)
		}
		s.fileReference(w, pages, d.N(), draws)
	} else {
		dist.Draw(d, s.src, draws)
		s.file(w, lo, pages, d.N(), draws)
	}
	s.totalSamples += k
}

// pageIndex maps an item rank of a distribution over items items onto
// one of pages pages: item i lands on page floor(i / (items/pages)),
// clamped to the last page.
func pageIndex(item, items, pages int) int {
	itemsPerPage := float64(items) / float64(pages)
	if itemsPerPage <= 0 {
		itemsPerPage = 1
	}
	if idx := int(float64(item) / itemsPerPage); idx < pages {
		return idx
	}
	return pages - 1
}

// file records the drawn items of workload w, whose pages are
// [base, base+pages), in one pass: each sample bumps its page's hotness,
// counts as an FMem or SMem access, and adds its page to TickPages on the
// page's first sample this tick. Every simulator workload's distribution
// covers exactly its pages (items == pages), so item i is page base+i;
// other shapes go through pageIndex.
func (s *Sampler) file(w mem.WorkloadID, base mem.PageID, pages, items int, draws []int) {
	if items != pages {
		for i, item := range draws {
			draws[i] = pageIndex(item, items, pages)
		}
	}
	sys, seen, gen := s.sys, s.seen, s.gen
	// Append branch-free: every sample writes its page past the end, and
	// only a page's first sample this tick advances the end.
	tickPages := slices.Grow(s.tickPages[w], len(draws))
	n := len(tickPages)
	tickPages = tickPages[:n+len(draws)]
	var hits uint64
	for _, idx := range draws {
		pid := base + mem.PageID(idx)
		if sys.AddSample(pid) {
			hits++
		}
		tickPages[n] = pid
		if seen[pid] != gen {
			n++
		}
		seen[pid] = gen
	}
	s.tickPages[w] = tickPages[:n]
	s.fmemTick[w] += hits
	s.smemTick[w] += uint64(len(draws)) - hits
}

// fileReference is file on the seed implementation's path: pages through
// WorkloadPages, hotness first, then the tier probe and the map-backed
// dedup.
func (s *Sampler) fileReference(w mem.WorkloadID, pages, items int, draws []int) {
	owned := s.sys.WorkloadPages(w)
	for i, item := range draws {
		draws[i] = pageIndex(item, items, pages)
		s.sys.AddHotness(owned[draws[i]], 1)
	}
	for _, idx := range draws {
		pid := owned[idx]
		if s.sys.PageInFMem(pid) {
			s.fmemTick[w]++
		} else {
			s.smemTick[w]++
		}
		if _, dup := s.tickPageSet[pid]; !dup {
			s.tickPageSet[pid] = struct{}{}
			s.tickPages[w] = append(s.tickPages[w], pid)
		}
	}
}

// TickPages returns the unique pages of workload w sampled this tick, in
// first-sample order. The slice is owned by the sampler and valid until
// the next BeginTick.
func (s *Sampler) TickPages(w mem.WorkloadID) []mem.PageID {
	if int(w) >= len(s.tickPages) {
		return nil
	}
	return s.tickPages[w]
}

// SampledThisTick reports whether pid has been sampled since the last
// BeginTick — whether it appears in some workload's TickPages.
func (s *Sampler) SampledThisTick(pid mem.PageID) bool {
	if s.ref {
		_, ok := s.tickPageSet[pid]
		return ok
	}
	return int(pid) < len(s.seen) && s.seen[pid] == s.gen
}

// TickFMemAccesses returns the sampled FMem access count for w this tick.
func (s *Sampler) TickFMemAccesses(w mem.WorkloadID) uint64 {
	if int(w) >= len(s.fmemTick) {
		return 0
	}
	return s.fmemTick[w]
}

// TickSMemAccesses returns the sampled SMem access count for w this tick.
func (s *Sampler) TickSMemAccesses(w mem.WorkloadID) uint64 {
	if int(w) >= len(s.smemTick) {
		return 0
	}
	return s.smemTick[w]
}

// TickFMemAccessRatio returns the fraction of w's sampled accesses that
// hit FMem this tick — the "FMem Access Ratio" RL state input (§3.2.1).
// Returns 0 when no accesses were sampled.
func (s *Sampler) TickFMemAccessRatio(w mem.WorkloadID) float64 {
	f := s.TickFMemAccesses(w)
	sm := s.TickSMemAccesses(w)
	if f+sm == 0 {
		return 0
	}
	return float64(f) / float64(f+sm)
}

// poisson draws from a Poisson distribution with the given mean, using
// Knuth's method for small means and a clamped normal approximation for
// large ones.
func (s *Sampler) poisson(mean float64) uint64 {
	if mean <= 0 {
		return 0
	}
	if mean > 256 {
		v := mean + math.Sqrt(mean)*s.rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return uint64(v + 0.5)
	}
	l := math.Exp(-mean)
	var k uint64
	p := 1.0
	for {
		p *= s.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
