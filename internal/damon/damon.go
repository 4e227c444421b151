// Package damon implements DAMON-style adaptive region-based access
// monitoring [Park et al., Middleware'19 industrial track], the
// lightweight alternative to per-page counting that the paper's related
// work discusses (Telescope extends it to terabyte footprints). Instead of
// one counter per page, the monitor maintains a bounded set of contiguous
// regions; each sampled access is attributed to its region, and at every
// aggregation boundary regions with similar access counts merge while
// large or hot regions split, adaptively concentrating resolution where
// the access pattern has structure.
//
// The trade-off it exposes — bounded bookkeeping versus per-page fidelity
// — is evaluated by the "monitoring" experiment.
package damon

import (
	"fmt"
	"math/rand"

	"github.com/tieredmem/mtat/internal/mem"
)

// Region is a contiguous page range [Start, End) with its access count
// for the current aggregation interval and a smoothed activity estimate.
type Region struct {
	Start, End mem.PageID
	// Accesses is the sampled access count in the current interval.
	Accesses uint64
	// Smoothed is the exponentially aged access estimate across
	// intervals (DAMON's nr_accesses analogue).
	Smoothed float64
}

// Len returns the region's size in pages.
func (r Region) Len() int { return int(r.End - r.Start) }

// Config bounds the monitor's adaptivity.
type Config struct {
	// MinRegions and MaxRegions bound the region count.
	MinRegions int
	MaxRegions int
	// MergeThreshold merges adjacent regions whose per-page access rates
	// differ by at most this fraction of the larger rate.
	MergeThreshold float64
	// Seed drives the randomized split points.
	Seed int64
}

// DefaultConfig mirrors DAMON's defaults: 10-1000 regions, 10% merge
// threshold.
func DefaultConfig() Config {
	return Config{MinRegions: 10, MaxRegions: 1000, MergeThreshold: 0.1, Seed: 1}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.MinRegions < 1 {
		return fmt.Errorf("damon: MinRegions must be >= 1, got %d", c.MinRegions)
	}
	if c.MaxRegions < c.MinRegions {
		return fmt.Errorf("damon: MaxRegions (%d) must be >= MinRegions (%d)",
			c.MaxRegions, c.MinRegions)
	}
	if c.MergeThreshold < 0 || c.MergeThreshold > 1 {
		return fmt.Errorf("damon: MergeThreshold must be in [0,1], got %g", c.MergeThreshold)
	}
	return nil
}

// Monitor tracks access activity over one contiguous page range.
// It is not safe for concurrent use.
type Monitor struct {
	cfg     Config
	start   mem.PageID
	end     mem.PageID
	regions []Region
	// regionOf[pid-start] is the index in regions of pid's region,
	// rebuilt whenever the regions change.
	regionOf []int32
	rng      *rand.Rand
}

// NewMonitor returns a monitor over pages [start, end), initially split
// into MinRegions equal regions.
func NewMonitor(start, end mem.PageID, cfg Config) (*Monitor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if end <= start {
		return nil, fmt.Errorf("damon: empty page range [%d, %d)", start, end)
	}
	m := &Monitor{
		cfg:   cfg,
		start: start,
		end:   end,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	n := cfg.MinRegions
	if total := int(end - start); n > total {
		n = total
	}
	size := int(end-start) / n
	for i := 0; i < n; i++ {
		lo := start + mem.PageID(i*size)
		hi := lo + mem.PageID(size)
		if i == n-1 {
			hi = end
		}
		m.regions = append(m.regions, Region{Start: lo, End: hi})
	}
	m.regionOf = make([]int32, int(end-start))
	m.index()
	return m, nil
}

// index rebuilds regionOf from the regions.
func (m *Monitor) index() {
	for i, r := range m.regions {
		for pid := r.Start; pid < r.End; pid++ {
			m.regionOf[pid-m.start] = int32(i)
		}
	}
}

// NumRegions returns the current region count — the monitor's bookkeeping
// footprint.
func (m *Monitor) NumRegions() int { return len(m.regions) }

// Regions returns the current regions in address order. The slice is
// owned by the monitor and valid until the next Aggregate.
func (m *Monitor) Regions() []Region { return m.regions }

// RecordAccess attributes one sampled access to pid's region. Accesses
// outside the monitored range are ignored.
func (m *Monitor) RecordAccess(pid mem.PageID) {
	if pid < m.start || pid >= m.end {
		return
	}
	m.regions[m.regionOf[pid-m.start]].Accesses++
}

// Aggregate closes the current interval: it folds counts into the
// smoothed estimates, merges adjacent regions with similar per-page
// rates, splits the busiest regions to regain resolution, and resets the
// interval counters.
func (m *Monitor) Aggregate() {
	for i := range m.regions {
		r := &m.regions[i]
		r.Smoothed = r.Smoothed/2 + float64(r.Accesses)
	}
	m.merge()
	m.split()
	for i := range m.regions {
		m.regions[i].Accesses = 0
	}
	m.index()
}

// perPageRate returns a region's smoothed per-page access rate.
func perPageRate(r Region) float64 {
	if r.Len() == 0 {
		return 0
	}
	return r.Smoothed / float64(r.Len())
}

// merge coalesces adjacent regions whose per-page rates are within the
// threshold, while respecting MinRegions.
func (m *Monitor) merge() {
	if len(m.regions) <= m.cfg.MinRegions {
		return
	}
	out := m.regions[:1]
	for i := 1; i < len(m.regions); i++ {
		r := m.regions[i]
		last := &out[len(out)-1]
		a, b := perPageRate(*last), perPageRate(r)
		max := a
		if b > max {
			max = b
		}
		diff := a - b
		if diff < 0 {
			diff = -diff
		}
		similar := max == 0 || diff <= m.cfg.MergeThreshold*max
		// Projected final count if this pair merges: regions emitted so
		// far plus the ones not yet processed.
		projected := len(out) + (len(m.regions) - i - 1)
		if similar && projected >= m.cfg.MinRegions {
			last.End = r.End
			last.Smoothed += r.Smoothed
			last.Accesses += r.Accesses
		} else {
			out = append(out, r)
		}
	}
	m.regions = out
}

// split divides regions at random points (DAMON's strategy for regaining
// resolution), hottest and largest first, until MaxRegions or one split
// per region this interval.
func (m *Monitor) split() {
	budget := m.cfg.MaxRegions - len(m.regions)
	if budget <= 0 {
		return
	}
	// Split every region larger than one page once, up to the budget,
	// preferring hotter regions (scan order approximates this cheaply
	// because hot regions accumulate more smoothed mass; DAMON itself
	// splits unconditionally).
	out := make([]Region, 0, len(m.regions)+budget)
	for _, r := range m.regions {
		if budget > 0 && r.Len() > 1 {
			cut := 1 + m.rng.Intn(r.Len()-1)
			left := Region{
				Start:    r.Start,
				End:      r.Start + mem.PageID(cut),
				Smoothed: r.Smoothed * float64(cut) / float64(r.Len()),
			}
			right := Region{
				Start:    left.End,
				End:      r.End,
				Smoothed: r.Smoothed - left.Smoothed,
			}
			out = append(out, left, right)
			budget--
		} else {
			out = append(out, r)
		}
	}
	m.regions = out
}

// HottestPages appends up to n pages from the hottest regions (by
// per-page smoothed rate) to dst, and returns the extended slice.
func (m *Monitor) HottestPages(dst []mem.PageID, n int) []mem.PageID {
	if n <= 0 {
		return dst
	}
	order := m.rateOrder()
	for i := len(order) - 1; i >= 0 && n > 0; i-- {
		r := m.regions[order[i]]
		for pid := r.Start; pid < r.End && n > 0; pid++ {
			dst = append(dst, pid)
			n--
		}
	}
	return dst
}

// ColdestPages appends up to n pages from the coldest regions to dst.
func (m *Monitor) ColdestPages(dst []mem.PageID, n int) []mem.PageID {
	if n <= 0 {
		return dst
	}
	order := m.rateOrder()
	for i := 0; i < len(order) && n > 0; i++ {
		r := m.regions[order[i]]
		for pid := r.Start; pid < r.End && n > 0; pid++ {
			dst = append(dst, pid)
			n--
		}
	}
	return dst
}

// rateOrder returns region indices sorted by ascending per-page rate.
func (m *Monitor) rateOrder() []int {
	order := make([]int, len(m.regions))
	for i := range order {
		order[i] = i
	}
	// Insertion sort: region counts are small and mostly sorted.
	for i := 1; i < len(order); i++ {
		j := i
		for j > 0 && perPageRate(m.regions[order[j-1]]) > perPageRate(m.regions[order[j]]) {
			order[j-1], order[j] = order[j], order[j-1]
			j--
		}
	}
	return order
}

// CheckInvariants verifies the regions exactly tile [start, end) in
// order. Tests call it after every operation.
func (m *Monitor) CheckInvariants() error {
	if len(m.regions) == 0 {
		return fmt.Errorf("damon: no regions")
	}
	if m.regions[0].Start != m.start {
		return fmt.Errorf("damon: first region starts at %d, want %d", m.regions[0].Start, m.start)
	}
	for i, r := range m.regions {
		if r.End <= r.Start {
			return fmt.Errorf("damon: region %d empty [%d,%d)", i, r.Start, r.End)
		}
		if i > 0 && r.Start != m.regions[i-1].End {
			return fmt.Errorf("damon: gap before region %d", i)
		}
	}
	if last := m.regions[len(m.regions)-1].End; last != m.end {
		return fmt.Errorf("damon: last region ends at %d, want %d", last, m.end)
	}
	if len(m.regions) > m.cfg.MaxRegions {
		return fmt.Errorf("damon: %d regions exceed max %d", len(m.regions), m.cfg.MaxRegions)
	}
	for i, r := range m.regions {
		for pid := r.Start; pid < r.End; pid++ {
			if got := m.regionOf[pid-m.start]; got != int32(i) {
				return fmt.Errorf("damon: page %d indexed to region %d, lies in region %d", pid, got, i)
			}
		}
	}
	return nil
}
