// Package hist implements the exponential-bin page-access histograms that
// PP-E (and the MEMTIS baseline) use to classify page hotness (§3.3.2,
// Fig. 4). Bin edges double at each step — bin 0 holds pages with 0
// accesses, bin 1 holds count 1 (2^0), bin 2 holds counts 2..3, bin k
// holds counts [2^(k-1), 2^k) — and each bin keeps the list of pages whose
// access count falls in its range, so promotion can pick from the hottest
// occupied bin and demotion from the coldest.
package hist

import (
	"fmt"
	"math/bits"

	"github.com/tieredmem/mtat/internal/mem"
)

// NumBins is the number of histogram bins. Bin NumBins-1 absorbs all
// counts >= 2^(NumBins-2); with 32 bins that is ~2^30 sampled accesses,
// far beyond anything a partition interval can accumulate.
const NumBins = 32

// BinOf returns the bin index for an access count.
func BinOf(count uint64) int {
	if count == 0 {
		return 0
	}
	b := bits.Len64(count) // count in [2^(b-1), 2^b)
	if b >= NumBins {
		return NumBins - 1
	}
	return b
}

// BinFloor returns the smallest access count that maps to bin i.
func BinFloor(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return uint64(1) << (i - 1)
}

// Histogram is a page-access histogram with per-bin page lists. Build one
// per workload per tier (Fig. 4a) or one unified per workload (Fig. 4b).
type Histogram struct {
	bins  [NumBins][]mem.PageID
	total int
}

// Add places a page with the given access count into the histogram.
func (h *Histogram) Add(pid mem.PageID, count uint64) {
	h.addBin(BinOf(count), pid)
}

// addBin places a page directly into bin b, for callers that already
// computed the bin index.
func (h *Histogram) addBin(b int, pid mem.PageID) {
	h.bins[b] = append(h.bins[b], pid)
	h.total++
}

// Len returns the number of pages in the histogram.
func (h *Histogram) Len() int { return h.total }

// BinLen returns the number of pages in bin i.
func (h *Histogram) BinLen(i int) int {
	if i < 0 || i >= NumBins {
		return 0
	}
	return len(h.bins[i])
}

// Reset empties the histogram, retaining bin capacity for reuse.
func (h *Histogram) Reset() {
	for i := range h.bins {
		h.bins[i] = h.bins[i][:0]
	}
	h.total = 0
}

// Hottest appends up to n pages to dst, drawn from the highest occupied
// bins downward, and returns the extended slice. Within a bin, pages come
// out in insertion order.
func (h *Histogram) Hottest(dst []mem.PageID, n int) []mem.PageID {
	if n <= 0 {
		return dst
	}
	for b := NumBins - 1; b >= 0 && n > 0; b-- {
		for _, pid := range h.bins[b] {
			dst = append(dst, pid)
			n--
			if n == 0 {
				break
			}
		}
	}
	return dst
}

// Coldest appends up to n pages to dst, drawn from the lowest occupied
// bins upward, and returns the extended slice.
func (h *Histogram) Coldest(dst []mem.PageID, n int) []mem.PageID {
	if n <= 0 {
		return dst
	}
	for b := 0; b < NumBins && n > 0; b++ {
		for _, pid := range h.bins[b] {
			dst = append(dst, pid)
			n--
			if n == 0 {
				break
			}
		}
	}
	return dst
}

// HotSplit partitions the histogram's pages into the hottest `capacity`
// pages (returned in hot) and the remainder (returned in cold), hottest
// bins first. This implements the Fig. 4b refinement: pages are assigned
// to FMem up to the workload's partition size, the rest stay in SMem.
func (h *Histogram) HotSplit(capacity int) (hot, cold []mem.PageID) {
	hot = make([]mem.PageID, 0, min(max(capacity, 0), h.total))
	cold = make([]mem.PageID, 0, max(h.total-capacity, 0))
	return h.HotSplitInto(hot, cold, capacity)
}

// HotSplitInto is HotSplit appending into caller-owned slices (truncated
// to zero length first), so steady-state callers allocate nothing.
func (h *Histogram) HotSplitInto(hot, cold []mem.PageID, capacity int) ([]mem.PageID, []mem.PageID) {
	if capacity < 0 {
		capacity = 0
	}
	hot, cold = hot[:0], cold[:0]
	for b := NumBins - 1; b >= 0; b-- {
		for _, pid := range h.bins[b] {
			if len(hot) < capacity {
				hot = append(hot, pid)
			} else {
				cold = append(cold, pid)
			}
		}
	}
	return hot, cold
}

// String summarizes occupied bins for debugging.
func (h *Histogram) String() string {
	s := "hist{"
	first := true
	for b := 0; b < NumBins; b++ {
		if len(h.bins[b]) == 0 {
			continue
		}
		if !first {
			s += " "
		}
		s += fmt.Sprintf("b%d:%d", b, len(h.bins[b]))
		first = false
	}
	return s + "}"
}

// Builder rebuilds one workload's histogram from the memory system's page
// hotness counters: either the unified histogram over all of its pages
// (Fig. 4b) or the histogram of its SMem-resident pages (Fig. 4a). Both
// builds share one histogram's storage, reused across rebuilds so that
// steady-state rebuilds allocate nothing.
type Builder struct {
	h      Histogram
	builds int64
}

// Builds returns how many build passes this builder has run — the
// simulator's histogram-rebuild count for core-stats accounting.
func (b *Builder) Builds() int64 { return b.builds }

// Unified rebuilds the histogram over all of workload w's pages; within a
// bin, pages keep w's allocation order. The returned histogram is owned
// by the Builder and is invalidated by its next build.
func (b *Builder) Unified(sys *mem.System, w mem.WorkloadID) *Histogram {
	b.h.Reset()
	b.builds++
	for _, pid := range sys.WorkloadPages(w) {
		b.h.addBin(BinOf(sys.PageHotness(pid)), pid)
	}
	return &b.h
}

// SMem rebuilds the histogram over workload w's SMem-resident pages;
// within a bin, pages keep w's allocation order. The returned histogram
// is owned by the Builder and is invalidated by its next build.
func (b *Builder) SMem(sys *mem.System, w mem.WorkloadID) *Histogram {
	b.h.Reset()
	b.builds++
	for _, pid := range sys.WorkloadPages(w) {
		if !sys.PageInFMem(pid) {
			b.h.addBin(BinOf(sys.PageHotness(pid)), pid)
		}
	}
	return &b.h
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
