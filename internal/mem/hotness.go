package mem

import "math/bits"

// NumBins is the number of exponential hotness bins (§3.3.2, Fig. 4). Bin
// edges double at each step: bin 0 holds pages with 0 sampled accesses,
// bin 1 holds count 1, bin 2 counts 2..3, and bin k counts
// [2^(k-1), 2^k). Bin NumBins-1 absorbs all counts >= 2^(NumBins-2); with
// 32 bins that is ~2^30 sampled accesses, far beyond anything a partition
// interval can accumulate.
const NumBins = 32

// BinOf returns the bin index for an access count.
func BinOf(count uint64) int {
	if b := bits.Len64(count); b < NumBins {
		return b
	}
	return NumBins - 1
}

// BinFloor returns the smallest access count that maps to bin i.
func BinFloor(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return uint64(1) << (i - 1)
}

// The hotness index files every page in the bin of its effective hotness:
// one bitset over PageIDs per bin plus per-workload bin counts. Ranked
// queries read it instead of rebuilding a histogram over every page, so a
// selection costs O(bitset words of the bins it visits), and upkeep costs
// O(1) per hotness change and O(bitset words) per aging pass. Within a bin
// the queries emit pages in the order a histogram built over ids (then
// each workload's allocation order) would hold them, so every selection
// equals the reference rebuild (naive.go) page for page.

// addToIndex files workload id's n new pages, starting at PageID lo, in
// bin 0, growing every bin's bitset to words words in one allocation.
func (s *System) addToIndex(id WorkloadID, lo, n, words int) {
	backing := make([]uint64, NumBins*words)
	for b := range s.bins {
		seg := backing[b*words : (b+1)*words : (b+1)*words]
		copy(seg, s.bins[b])
		s.bins[b] = seg
	}
	for pid := lo; pid < lo+n; pid++ {
		s.bins[0][pid>>6] |= 1 << (uint(pid) & 63)
	}
	s.binPages = append(s.binPages, [NumBins]int{0: n})
}

// rebin moves pid from bin from to bin to.
func (s *System) rebin(pid PageID, from, to int) {
	if from == to {
		return
	}
	w, bit := uint(pid)>>6, uint64(1)<<(uint(pid)&63)
	s.bins[from][w] &^= bit
	s.bins[to][w] |= bit
	c := &s.binPages[s.owners[pid]]
	c[from]--
	c[to]++
}

// ageIndex follows one halving of every counter: each page moves down one
// bin (bin 0 stays), except that pages of the capped top bin move only
// once their count drops below its floor.
func (s *System) ageIndex() {
	const top = NumBins - 1
	b0, b1 := s.bins[0], s.bins[1]
	for i, w := range b1 {
		b0[i] |= w
		b1[i] = 0
	}
	copy(s.bins[1:top-1], s.bins[2:top])
	s.bins[top-1] = b1 // reused, cleared: refilled from the top bin below
	inTop := 0
	for w := range s.binPages {
		c := &s.binPages[w]
		c[0] += c[1]
		copy(c[1:top-1], c[2:top])
		c[top-1] = 0
		inTop += c[top]
	}
	if inTop == 0 {
		return
	}
	for i, w := range s.bins[top] {
		for ; w != 0; w &= w - 1 {
			pid := PageID(i<<6 | bits.TrailingZeros64(w))
			s.rebin(pid, top, BinOf(s.PageHotness(pid)))
		}
	}
}

// span is WorkloadRange as ints.
func (s *System) span(w WorkloadID) (lo, hi int) {
	l, h := s.WorkloadRange(w)
	return int(l), int(h)
}

// tierSel selects pages by tier in a bitset word: a page passes when its
// FMem bit, xor-ed with inv, is set, or when all is all ones.
type tierSel struct{ inv, all uint64 }

var (
	selFMem = tierSel{}
	selSMem = tierSel{inv: ^uint64(0)}
	selAll  = tierSel{all: ^uint64(0)}
)

// word returns word i of bin b restricted to PageIDs in [lo, hi) and to
// the pages t selects.
func (s *System) word(b, i, lo, hi int, t tierSel) uint64 {
	w := s.bins[b][i] & (s.fmemBits[i] ^ t.inv | t.all)
	if i == lo>>6 {
		w &= ^uint64(0) << (uint(lo) & 63)
	}
	if i == (hi-1)>>6 {
		w &= ^uint64(0) >> (63 - uint(hi-1)&63)
	}
	return w
}

// appendAsc appends up to n pages of bin b in [lo, hi) that t selects and
// skip (when non-nil) does not reject, in ascending PageID order. It
// returns the extended slice and how many of the n remain.
func (s *System) appendAsc(dst []PageID, b, lo, hi int, t tierSel, n int, skip func(PageID) bool) ([]PageID, int) {
	for i := lo >> 6; i <= (hi-1)>>6 && n > 0; i++ {
		for w := s.word(b, i, lo, hi, t); w != 0; w &= w - 1 {
			pid := PageID(i<<6 | bits.TrailingZeros64(w))
			if skip != nil && skip(pid) {
				continue
			}
			dst = append(dst, pid)
			if n--; n == 0 {
				break
			}
		}
	}
	return dst, n
}

// appendDesc appends every page of bin b in [lo, hi) that t selects, in
// descending PageID order.
func (s *System) appendDesc(dst []PageID, b, lo, hi int, t tierSel) []PageID {
	for i := (hi - 1) >> 6; i >= lo>>6; i-- {
		for w := s.word(b, i, lo, hi, t); w != 0; {
			top := 63 - bits.LeadingZeros64(w)
			dst = append(dst, PageID(i<<6|top))
			w &^= 1 << uint(top)
		}
	}
	return dst
}

// cutAfter returns the PageID just past the k-th (k >= 1) page of bin b in
// [lo, hi), counting in ascending PageID order. Bin b must hold at least k
// pages there.
func (s *System) cutAfter(b, lo, hi, k int) int {
	for i := lo >> 6; ; i++ {
		w := s.word(b, i, lo, hi, selAll)
		if c := bits.OnesCount64(w); c < k {
			k -= c
			continue
		}
		for ; k > 1; k-- {
			w &= w - 1
		}
		return (i<<6 | bits.TrailingZeros64(w)) + 1
	}
}

// HotSplit ranks the pages of ids by hotness — hottest bin first, then ids
// order, then allocation order — and takes the first capacity of them as
// the hot set, the Fig. 4b refinement. It appends the SMem-resident hot
// pages to promote in rank order, and the FMem-resident pages outside the
// hot set to demote coldest first (exactly the reverse rank order), and
// returns both slices. ids must be distinct.
func (s *System) HotSplit(ids []WorkloadID, capacity int, promote, demote []PageID) ([]PageID, []PageID) {
	if s.reference {
		return s.naiveHotSplit(ids, capacity, promote, demote)
	}
	return s.indexHotSplit(ids, capacity, promote, demote)
}

// indexHotSplit is HotSplit read from the hotness index. The bin counts
// place the threshold bin and its hot prefix; only the bitset words of
// the visited bins are read.
func (s *System) indexHotSplit(ids []WorkloadID, capacity int, promote, demote []PageID) ([]PageID, []PageID) {
	tot := s.indexBinCounts(ids)
	// Bins above t are hot, bins below it cold, and the first k pages of
	// bin t are hot; t == -1 means every page is hot.
	t, k := -1, max(capacity, 0)
	for b := NumBins - 1; b >= 0; b-- {
		if tot[b] > k {
			t = b
			break
		}
		k -= tot[b]
	}
	for b := NumBins - 1; b > t; b-- {
		if tot[b] == 0 {
			continue
		}
		for _, id := range ids {
			if s.binPages[id][b] > 0 {
				lo, hi := s.span(id)
				promote, _ = s.appendAsc(promote, b, lo, hi, selSMem, len(s.owners), nil)
			}
		}
	}
	if t < 0 {
		return promote, demote
	}
	// The hot prefix of bin t ends inside ids[j], just before PageID cut.
	j, cut := 0, 0
	for ; ; j++ {
		lo, hi := s.span(ids[j])
		c := s.binPages[ids[j]][t]
		if c <= k {
			if c > 0 {
				promote, _ = s.appendAsc(promote, t, lo, hi, selSMem, len(s.owners), nil)
			}
			k -= c
			continue
		}
		cut = lo
		if k > 0 {
			cut = s.cutAfter(t, lo, hi, k)
			promote, _ = s.appendAsc(promote, t, lo, cut, selSMem, len(s.owners), nil)
		}
		break
	}
	for b := 0; b < t; b++ {
		if tot[b] == 0 {
			continue
		}
		for i := len(ids) - 1; i >= 0; i-- {
			if s.binPages[ids[i]][b] > 0 {
				lo, hi := s.span(ids[i])
				demote = s.appendDesc(demote, b, lo, hi, selFMem)
			}
		}
	}
	for i := len(ids) - 1; i > j; i-- {
		if s.binPages[ids[i]][t] > 0 {
			lo, hi := s.span(ids[i])
			demote = s.appendDesc(demote, t, lo, hi, selFMem)
		}
	}
	if _, hi := s.span(ids[j]); cut < hi {
		demote = s.appendDesc(demote, t, cut, hi, selFMem)
	}
	return promote, demote
}

// AppendHottestSMem appends up to n of the hottest SMem-resident pages of
// ids to dst — hottest bin first, then ids order, then allocation order —
// and returns the extended slice.
func (s *System) AppendHottestSMem(dst []PageID, ids []WorkloadID, n int) []PageID {
	if n <= 0 {
		return dst
	}
	if s.reference {
		return s.naiveHottestSMem(dst, ids, n)
	}
	return s.indexHottestSMem(dst, ids, n)
}

func (s *System) indexHottestSMem(dst []PageID, ids []WorkloadID, n int) []PageID {
	for b := NumBins - 1; b >= 0 && n > 0; b-- {
		for _, id := range ids {
			if s.binPages[id][b] > 0 {
				lo, hi := s.span(id)
				if dst, n = s.appendAsc(dst, b, lo, hi, selSMem, n, nil); n == 0 {
					break
				}
			}
		}
	}
	return dst
}

// AppendColdestFMem appends up to n of the coldest FMem-resident pages of
// ids to dst — coldest bin first, then ids order, then allocation order —
// passing over pages that skip (when non-nil) reports, and returns the
// extended slice.
func (s *System) AppendColdestFMem(dst []PageID, ids []WorkloadID, n int, skip func(PageID) bool) []PageID {
	if n <= 0 {
		return dst
	}
	if s.reference {
		return s.naiveColdestFMem(dst, ids, n, skip)
	}
	return s.indexColdestFMem(dst, ids, n, skip)
}

func (s *System) indexColdestFMem(dst []PageID, ids []WorkloadID, n int, skip func(PageID) bool) []PageID {
	for b := 0; b < NumBins && n > 0; b++ {
		for _, id := range ids {
			if s.binPages[id][b] > 0 {
				lo, hi := s.span(id)
				if dst, n = s.appendAsc(dst, b, lo, hi, selFMem, n, skip); n == 0 {
					break
				}
			}
		}
	}
	return dst
}

// BinCounts returns how many pages of ids lie in each hotness bin — the
// occupancy of the histogram a HotSplit over ids ranks.
func (s *System) BinCounts(ids []WorkloadID) [NumBins]int {
	if s.reference {
		return s.naiveBinCounts(ids)
	}
	return s.indexBinCounts(ids)
}

func (s *System) indexBinCounts(ids []WorkloadID) [NumBins]int {
	var tot [NumBins]int
	for _, id := range ids {
		for b, c := range &s.binPages[id] {
			tot[b] += c
		}
	}
	return tot
}
