package mem

import "sync/atomic"

// The reference ranking is the seed implementation's per-call histogram
// rebuild: every ranked query files each candidate page into per-bin page
// lists, then reads the lists. SetReference routes every ranked query
// here; it is the oracle the hotness index is checked against.

// naiveRankings counts reference rebuilds process-wide.
var naiveRankings atomic.Uint64

// NaiveRankings returns how many ranked queries this process has answered
// through the reference histogram rebuild. Tests read it to prove a
// reference run really reached that path.
func NaiveRankings() uint64 { return naiveRankings.Load() }

// rebuild refills the reference histogram — per-bin page lists — with the
// pages of ids, in ids order and then allocation order, keeping those keep
// (when non-nil) accepts.
func (s *System) rebuild(ids []WorkloadID, keep func(PageID) bool) *[NumBins][]PageID {
	naiveRankings.Add(1)
	bins := &s.refBins
	for b := range bins {
		bins[b] = bins[b][:0]
	}
	for _, id := range ids {
		for _, pid := range s.byOwner[id] {
			if keep == nil || keep(pid) {
				b := BinOf(s.PageHotness(pid))
				bins[b] = append(bins[b], pid)
			}
		}
	}
	return bins
}

// naiveHotSplit is HotSplit by rebuild: split the histogram's pages,
// hottest bins first, into the first capacity and the rest, then keep the
// SMem pages of the first part and the FMem pages of the rest, coldest
// first.
func (s *System) naiveHotSplit(ids []WorkloadID, capacity int, promote, demote []PageID) ([]PageID, []PageID) {
	bins := s.rebuild(ids, nil)
	var hot, cold []PageID
	for b := NumBins - 1; b >= 0; b-- {
		for _, pid := range bins[b] {
			if len(hot) < capacity {
				hot = append(hot, pid)
			} else {
				cold = append(cold, pid)
			}
		}
	}
	for _, pid := range hot {
		if !s.inFMem(pid) {
			promote = append(promote, pid)
		}
	}
	for i := len(cold) - 1; i >= 0; i-- {
		if s.inFMem(cold[i]) {
			demote = append(demote, cold[i])
		}
	}
	return promote, demote
}

// naiveHottestSMem is AppendHottestSMem by rebuild over the SMem pages.
func (s *System) naiveHottestSMem(dst []PageID, ids []WorkloadID, n int) []PageID {
	bins := s.rebuild(ids, func(pid PageID) bool { return !s.inFMem(pid) })
	for b := NumBins - 1; b >= 0 && n > 0; b-- {
		for _, pid := range bins[b] {
			dst = append(dst, pid)
			if n--; n == 0 {
				break
			}
		}
	}
	return dst
}

// naiveColdestFMem is AppendColdestFMem by rebuild over the FMem pages
// skip does not reject.
func (s *System) naiveColdestFMem(dst []PageID, ids []WorkloadID, n int, skip func(PageID) bool) []PageID {
	bins := s.rebuild(ids, func(pid PageID) bool { return s.inFMem(pid) && (skip == nil || !skip(pid)) })
	for b := 0; b < NumBins && n > 0; b++ {
		for _, pid := range bins[b] {
			dst = append(dst, pid)
			if n--; n == 0 {
				break
			}
		}
	}
	return dst
}

// naiveBinCounts is BinCounts by rebuild.
func (s *System) naiveBinCounts(ids []WorkloadID) [NumBins]int {
	bins := s.rebuild(ids, nil)
	var c [NumBins]int
	for b := range bins {
		c[b] = len(bins[b])
	}
	return c
}
