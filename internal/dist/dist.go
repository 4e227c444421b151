// Package dist provides the page-access distributions used by the workload
// models: uniform (YCSB workload C with uniform request keys, §5 of the
// paper), Zipfian (skewed best-effort access profiles such as PageRank's
// high-degree vertices), and a scan distribution for streaming phases.
//
// A Distribution answers two questions the simulator needs:
//
//  1. Sample(rng): draw a random item index, used to generate the sampled
//     access stream that feeds PEBS counters.
//  2. CDF(k): the fraction of all accesses that fall on the k hottest
//     items, used by the analytic throughput models to convert "the top m
//     pages are FMem-resident" into an FMem hit ratio.
//
// Items are indexed by hotness rank: index 0 is the hottest item.
package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"github.com/tieredmem/mtat/internal/rng"
)

// Distribution models the access popularity over n items ranked by hotness.
type Distribution interface {
	// N returns the number of items.
	N() int
	// Sample draws one item index in [0, N()) using rng.
	Sample(rng *rand.Rand) int
	// CDF returns the fraction of accesses hitting the k hottest items.
	// CDF(0) = 0 and CDF(N()) = 1; CDF is monotone non-decreasing.
	CDF(k int) float64
}

// Uniform is a distribution where every item is equally likely. Under
// uniform access no page looks hotter than another — this is exactly why
// frequency-based tiering classifies LC data as cold (§2.2).
type Uniform struct {
	n int
}

var _ Distribution = (*Uniform)(nil)

// NewUniform returns a uniform distribution over n items. n must be > 0.
func NewUniform(n int) (*Uniform, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dist: uniform n must be > 0, got %d", n)
	}
	return &Uniform{n: n}, nil
}

// N implements Distribution.
func (u *Uniform) N() int { return u.n }

// Sample implements Distribution.
func (u *Uniform) Sample(rng *rand.Rand) int { return rng.Intn(u.n) }

// CDF implements Distribution.
func (u *Uniform) CDF(k int) float64 {
	switch {
	case k <= 0:
		return 0
	case k >= u.n:
		return 1
	default:
		return float64(k) / float64(u.n)
	}
}

// Zipf is a Zipfian distribution with exponent theta over n items; item i
// has probability proportional to 1/(i+1)^theta. theta = 0 degenerates to
// uniform; larger theta concentrates accesses on fewer items. A Zipf is
// immutable after construction, so one value serves any number of
// goroutines (NewZipf shares them).
type Zipf struct {
	n     int
	theta float64
	// cdf[i] = probability mass of items [0, i]; len == n.
	cdf []float64
	// guide is Chen & Asau's guide table over m buckets (guidePerItem
	// per item, within maxGuideBuckets): with its flag bit clear,
	// guide[j] is the smallest i with cdf[i] >= j/m, for j = 0..m. A
	// draw u in bucket j = int(u*m) has its answer in
	// [guide[j], guide[j+1]] up to rounding; guide[j] carries exactBit
	// when no rounding can move it out (newGuide), so Sample searches one
	// bucket, not the CDF.
	guide []uint32
	m     int     // len(guide) - 1
	scale float64 // float64(m)
}

var _ Distribution = (*Zipf)(nil)

// guidePerItem is the guide table's buckets per item. With four, most
// buckets of a simulator Zipf hold a single candidate, which an exact
// bucket returns without reading the CDF.
const guidePerItem = 4

// maxGuideBuckets caps the guide table of a large Zipf at 4 MB, as long
// as that still leaves a bucket per item: past that size the table's
// cache misses cost more than the candidates it saves.
const maxGuideBuckets = 1 << 20

// exactBit flags guide[j] when bucket j needs no bound checks. Guide
// entries are item indices below 2^31, so the top bit is free.
const exactBit = 1 << 31

// exactSlack is the margin by which a bucket's CDF bounds must clear its
// edges j/m and (j+1)/m to be flagged exact. A draw u lands in bucket j
// only if u >= j/m - 2^-53 (u*m rounds up by at most half an ulp of j)
// and u < (j+1)/m (rounding is monotone and j+1 is exact), and the edge
// computed as float64(j)/float64(m) is within 2^-53 of j/m, so 2^-50
// covers both errors with room to spare.
const exactSlack = 0x1p-50

// zipfCacheCapacity bounds the shared Zipf tables NewZipf keeps. A
// paper-scale table (n = 9088) is about 220 KB, so a full cache of those
// is about 7 MB.
const zipfCacheCapacity = 32

// zipfKey identifies a Zipf table.
type zipfKey struct {
	n     int
	theta uint64 // math.Float64bits(theta)
}

// zipfCache is the process-wide LRU of Zipf tables behind NewZipf.
var zipfCache = struct {
	sync.Mutex
	entries map[zipfKey]*zipfEntry
	clock   uint64
}{entries: make(map[zipfKey]*zipfEntry)}

type zipfEntry struct {
	z    *Zipf
	used uint64 // clock at the last insert or hit, for LRU eviction
}

// NewZipf returns a Zipf distribution over n items with exponent theta.
// n must be in (0, math.MaxInt32] and theta must be >= 0. Tables are
// immutable and shared: calls with the same n and theta return the same
// *Zipf while it stays among the zipfCacheCapacity most recently used.
func NewZipf(n int, theta float64) (*Zipf, error) {
	if n <= 0 || int64(n) > math.MaxInt32 {
		return nil, fmt.Errorf("dist: zipf n must be in (0, %d], got %d", math.MaxInt32, n)
	}
	if theta < 0 || math.IsNaN(theta) {
		return nil, fmt.Errorf("dist: zipf theta must be >= 0, got %g", theta)
	}
	key := zipfKey{n, math.Float64bits(theta)}
	c := &zipfCache
	c.Lock()
	if e, ok := c.entries[key]; ok {
		c.clock++
		e.used = c.clock
		c.Unlock()
		return e.z, nil
	}
	c.Unlock()
	z := newZipf(n, theta) // outside the lock: ~1 ms at paper scale
	c.Lock()
	defer c.Unlock()
	c.clock++
	if e, ok := c.entries[key]; ok { // a concurrent call built it first
		e.used = c.clock
		return e.z, nil
	}
	if len(c.entries) >= zipfCacheCapacity {
		var oldest zipfKey
		var used uint64 = math.MaxUint64
		for k, e := range c.entries {
			if e.used < used {
				oldest, used = k, e.used
			}
		}
		delete(c.entries, oldest)
	}
	c.entries[key] = &zipfEntry{z: z, used: c.clock}
	return z, nil
}

// newZipf builds a private Zipf table; n and theta must be valid.
func newZipf(n int, theta float64) *Zipf {
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against rounding
	return zipfFromCDF(cdf, theta)
}

// zipfFromCDF builds a Zipf over a non-decreasing cdf whose last entry is
// 1.
func zipfFromCDF(cdf []float64, theta float64) *Zipf {
	guide := newGuide(cdf)
	m := len(guide) - 1
	return &Zipf{n: len(cdf), theta: theta, cdf: cdf, guide: guide, m: m, scale: float64(m)}
}

// newGuide returns the flagged guide table of a non-decreasing cdf whose
// last entry is 1. Bucket j is flagged exact when its lower candidate
// guide[j] is 0 or cdf[guide[j]-1] sits exactSlack below the edge j/m, and
// its upper candidate's CDF is 1 or sits exactSlack above (j+1)/m: then
// every u that lands in the bucket has its answer inside it.
func newGuide(cdf []float64) []uint32 {
	m := max(min(guidePerItem*len(cdf), maxGuideBuckets), len(cdf))
	guide := make([]uint32, m+1)
	i := 0
	var prevEdge float64
	for j := 0; j <= m; j++ {
		edge := float64(j) / float64(m)
		for cdf[i] < edge {
			i++
		}
		guide[j] = uint32(i)
		if j == 0 {
			continue
		}
		// Bucket j-1 spans [prevEdge, edge).
		lo, hi := int(guide[j-1]), i
		if (lo == 0 || cdf[lo-1] < prevEdge-exactSlack) &&
			(cdf[hi] >= 1 || cdf[hi] >= edge+exactSlack) {
			guide[j-1] |= exactBit
		}
		prevEdge = edge
	}
	return guide
}

// N implements Distribution.
func (z *Zipf) N() int { return z.n }

// Theta returns the skew exponent.
func (z *Zipf) Theta() float64 { return z.theta }

// Sample implements Distribution: the smallest i with cdf[i] >= u, found
// inside u's guide-table bucket.
func (z *Zipf) Sample(rng *rand.Rand) int { return z.search(rng.Float64()) }

// search returns the smallest i with cdf[i] >= u for u in [0, 1) — the
// same index searchFull returns. An exact bucket with one candidate
// returns it without reading the CDF; an exact bucket with more
// binary-searches between them. Any other bucket's bounds are first
// checked against the CDF, so the result does not depend on how u*m or
// the table's j/m round.
func (z *Zipf) search(u float64) int {
	j := int(u * z.scale)
	if j >= z.m {
		j = z.m - 1
	}
	g := z.guide[j]
	lo, hi := int(g&^exactBit), int(z.guide[j+1]&^exactBit)
	if g&exactBit != 0 {
		if lo == hi {
			return lo
		}
		return lowerBound(z.cdf, u, lo, hi)
	}
	for lo > 0 && z.cdf[lo-1] >= u {
		lo--
	}
	for z.cdf[hi] < u {
		hi++
	}
	return lowerBound(z.cdf, u, lo, hi)
}

// searchFull is the reference search: a binary search over the whole CDF.
func (z *Zipf) searchFull(u float64) int {
	referenceSearches.Add(1)
	return lowerBound(z.cdf, u, 0, z.n-1)
}

// lowerBound returns the smallest i in [lo, hi] with cdf[i] >= u, given
// cdf[hi] >= u and, when lo > 0, cdf[lo-1] < u.
func lowerBound(cdf []float64, u float64, lo, hi int) int {
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// referenceSearches counts searchFull calls process-wide.
var referenceSearches atomic.Uint64

// ReferenceSearches returns how many Zipf draws this process has made
// through the reference full-CDF binary search (SampleReference). Tests
// read it to prove a reference run really reached that search.
func ReferenceSearches() uint64 { return referenceSearches.Load() }

// SampleReference draws one item from d as d.Sample does — the same RNG
// consumption, the same index — except that every Zipf draw, including a
// Zipf component's draw inside a Mixture, binary-searches the whole CDF
// instead of one guide-table bucket. It is the retained reference path
// the differential harness checks the guided search against.
func SampleReference(d Distribution, rng *rand.Rand) int {
	switch d := d.(type) {
	case *Zipf:
		return d.searchFull(rng.Float64())
	case *Mixture:
		return SampleReference(d.pick(rng.Float64()), rng)
	}
	return d.Sample(rng)
}

// Draw fills dst with draws from d on src's stream: the values, in order,
// that len(dst) calls of d.Sample(src.Rand()) would return, leaving src
// and any Scan position where those calls would. It dispatches on d's
// type once per call rather than once per draw, and draws through src's
// inlinable methods; only a Mixture still picks a component per draw.
func Draw(d Distribution, src *rng.Source, dst []int) {
	switch d := d.(type) {
	case *Zipf:
		for i := range dst {
			dst[i] = d.search(src.Float64())
		}
	case *Uniform:
		for i := range dst {
			dst[i] = src.Intn(d.n)
		}
	case *Scan:
		for i := range dst {
			dst[i] = d.Sample(nil)
		}
	case *Mixture:
		for i := range dst {
			switch c := d.pick(src.Float64()).(type) {
			case *Zipf:
				dst[i] = c.search(src.Float64())
			case *Scan:
				dst[i] = c.Sample(nil)
			default:
				dst[i] = c.Sample(src.Rand())
			}
		}
	default:
		r := src.Rand()
		for i := range dst {
			dst[i] = d.Sample(r)
		}
	}
}

// CDF implements Distribution.
func (z *Zipf) CDF(k int) float64 {
	switch {
	case k <= 0:
		return 0
	case k >= z.n:
		return 1
	default:
		return z.cdf[k-1]
	}
}

// Scan models a streaming access pattern: each item is visited the same
// number of times per pass, so CDF is uniform, but Sample walks items
// sequentially, approximating the page-table-order scans of graph kernels.
// Scan is not safe for concurrent use.
type Scan struct {
	n    int
	next int
}

var _ Distribution = (*Scan)(nil)

// NewScan returns a scan distribution over n items. n must be > 0.
func NewScan(n int) (*Scan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dist: scan n must be > 0, got %d", n)
	}
	return &Scan{n: n}, nil
}

// N implements Distribution.
func (s *Scan) N() int { return s.n }

// Sample implements Distribution; rng is unused because scans are
// deterministic, but the parameter is kept for interface compatibility.
func (s *Scan) Sample(_ *rand.Rand) int {
	i := s.next
	s.next++
	if s.next >= s.n {
		s.next = 0
	}
	return i
}

// CDF implements Distribution.
func (s *Scan) CDF(k int) float64 {
	switch {
	case k <= 0:
		return 0
	case k >= s.n:
		return 1
	default:
		return float64(k) / float64(s.n)
	}
}

// Mixture combines component distributions with fixed weights, e.g. a
// graph kernel that is 70% skewed vertex access and 30% edge-list scan.
type Mixture struct {
	n       int
	comps   []Distribution
	weights []float64 // cumulative, last = 1
}

var _ Distribution = (*Mixture)(nil)

// NewMixture returns a mixture of comps with the given positive weights
// (normalized internally). All components must cover the same item count.
func NewMixture(comps []Distribution, weights []float64) (*Mixture, error) {
	if len(comps) == 0 {
		return nil, fmt.Errorf("dist: mixture needs at least one component")
	}
	if len(comps) != len(weights) {
		return nil, fmt.Errorf("dist: mixture has %d components but %d weights", len(comps), len(weights))
	}
	n := comps[0].N()
	var sum float64
	for i, c := range comps {
		if c.N() != n {
			return nil, fmt.Errorf("dist: mixture component %d covers %d items, want %d", i, c.N(), n)
		}
		if weights[i] <= 0 {
			return nil, fmt.Errorf("dist: mixture weight %d must be > 0, got %g", i, weights[i])
		}
		sum += weights[i]
	}
	cum := make([]float64, len(weights))
	var acc float64
	for i, w := range weights {
		acc += w / sum
		cum[i] = acc
	}
	cum[len(cum)-1] = 1
	return &Mixture{n: n, comps: comps, weights: cum}, nil
}

// N implements Distribution.
func (m *Mixture) N() int { return m.n }

// Sample implements Distribution.
func (m *Mixture) Sample(rng *rand.Rand) int {
	return m.pick(rng.Float64()).Sample(rng)
}

// pick returns the component a mixture draw u in [0, 1) selects.
func (m *Mixture) pick(u float64) Distribution {
	for i, w := range m.weights {
		if u <= w {
			return m.comps[i]
		}
	}
	return m.comps[len(m.comps)-1]
}

// CDF implements Distribution as the weighted sum of component CDFs. This
// is exact only when the components rank items identically (true for our
// use: all components are hot-rank ordered over the same item set).
func (m *Mixture) CDF(k int) float64 {
	var v, prev float64
	for i, c := range m.comps {
		w := m.weights[i] - prev
		prev = m.weights[i]
		v += w * c.CDF(k)
	}
	return v
}

// HitRatio returns the fraction of accesses that hit when the hottest
// residentPages of totalPages are resident, assuming the dataset maps
// uniformly onto pages in hotness-rank order. It interpolates CDF between
// page boundaries.
func HitRatio(d Distribution, residentPages, totalPages int) float64 {
	if totalPages <= 0 || residentPages <= 0 {
		return 0
	}
	if residentPages >= totalPages {
		return 1
	}
	// Items map to pages in rank order: page p holds items
	// [p*itemsPerPage, (p+1)*itemsPerPage).
	frac := float64(residentPages) / float64(totalPages)
	k := frac * float64(d.N())
	k0 := int(math.Floor(k))
	c0 := d.CDF(k0)
	c1 := d.CDF(k0 + 1)
	return c0 + (c1-c0)*(k-float64(k0))
}
