// Package queue models the latency-critical workload's request queue: an
// open-loop M/G/c service station evaluated tick by tick. Within a tick the
// stationary M/G/c approximation (Erlang-C waiting probability with the
// Allen-Cunneen correction for general service times) yields the waiting
// time distribution; across ticks a fluid backlog carries overload, so
// sustained arrival rates beyond capacity produce the diverging tail
// latencies ("knees") of Figure 1 and the SLO violations of Figure 5.
package queue

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"github.com/tieredmem/mtat/internal/rng"
)

// mcDraws is the number of Monte Carlo sojourn draws per tick used to
// estimate latency quantiles.
const mcDraws = 2048

// Model is the per-workload queue state. It is not safe for concurrent use.
type Model struct {
	servers int
	seed    int64
	// src draws every Monte Carlo value. In reference mode src is nil and
	// ref, math/rand's own generator, draws them instead (SetReference).
	src      *rng.Source
	ref      *rand.Rand
	backlog  float64 // requests queued at tick boundary (overload carry)
	maxDelay float64 // client timeout bound on queueing delay; 0 = none
	ticks    int64   // cumulative Tick calls
	draws    int64   // cumulative Monte Carlo sojourn draws
	scratch  []float64
	// sel and hist are the bucket quantile kernel's scratch (Quantiles).
	sel  []float64
	hist [quantileBuckets]uint32
}

// SetReference switches the model to its retained reference paths, the
// oracle of the differential harness: the full-sort quantiles, and every
// draw from math/rand's own generator (rng.NewReference) and its
// ExpFloat64 instead of the inlinable copy. Both modes produce identical
// ticks. Switching restarts the draws at the seed, so call it before the
// first Tick.
func (m *Model) SetReference(ref bool) {
	if ref {
		m.src, m.ref = nil, rng.NewReference(m.seed)
	} else {
		m.src, m.ref = rng.New(m.seed), nil
	}
}

// NewModel returns a queue with the given number of servers (the cores or
// threads serving the LC workload), seeded deterministically.
func NewModel(servers int, seed int64) (*Model, error) {
	if servers <= 0 {
		return nil, fmt.Errorf("queue: servers must be > 0, got %d", servers)
	}
	return &Model{
		servers: servers,
		seed:    seed,
		src:     rng.New(seed),
	}, nil
}

// SetClientTimeout bounds the queueing delay: requests that would wait
// longer than maxDelay seconds are dropped by the client (open-loop load
// generators like Mutilate and YCSB time requests out rather than queueing
// forever). Dropped requests count as SLO violations. maxDelay <= 0
// disables the bound.
func (m *Model) SetClientTimeout(maxDelay float64) {
	m.maxDelay = maxDelay
}

// Servers returns the number of servers.
func (m *Model) Servers() int { return m.servers }

// Ticks returns the cumulative number of Tick calls since construction.
func (m *Model) Ticks() int64 { return m.ticks }

// Draws returns the cumulative number of Monte Carlo sojourn draws since
// construction (mcDraws per tick).
func (m *Model) Draws() int64 { return m.draws }

// Backlog returns the number of requests carried over from previous ticks.
func (m *Model) Backlog() float64 { return m.backlog }

// ResetBacklog clears carried-over requests (used between experiments).
func (m *Model) ResetBacklog() { m.backlog = 0 }

// TickResult reports the queue behaviour over one tick.
type TickResult struct {
	// Completed is the number of requests served during the tick.
	Completed float64
	// Offered is the number of requests that arrived during the tick.
	Offered float64
	// P50, P99 and Mean are sojourn-time statistics in seconds for
	// requests arriving this tick.
	P50  float64
	P99  float64
	Mean float64
	// Utilization is the offered load over capacity (can exceed 1).
	Utilization float64
	// Backlog is the queue length at the end of the tick.
	Backlog float64
	// Dropped is the number of requests abandoned this tick because they
	// would exceed the client timeout (SetClientTimeout).
	Dropped float64
	// ViolationFrac is the fraction of this tick's requests (served and
	// dropped) whose sojourn exceeded the slo passed to Tick, with drops
	// always counting as violations (0 when slo <= 0).
	ViolationFrac float64
}

// ServiceDist describes the per-request service time distribution for a
// tick: a fixed part plus an exponential share V of the mean, so a
// request's service time is Mean*((1-V) + V*Exp(1)) and its squared
// coefficient of variation is V². V = 0 is deterministic and draws
// nothing.
type ServiceDist struct {
	Mean float64
	V    float64 // exponential share, in [0, 1]
}

// CV2 returns the squared coefficient of variation (variance/mean²).
func (d ServiceDist) CV2() float64 { return d.V * d.V }

// DeterministicService returns a ServiceDist for a fixed service time.
func DeterministicService(s float64) ServiceDist {
	return ServiceDist{Mean: s}
}

// ExponentialService returns a ServiceDist with exponential service times.
func ExponentialService(mean float64) ServiceDist {
	return ServiceDist{Mean: mean, V: 1}
}

// sample draws one service time from r. It is the reference loop's
// sampler; the fast loop in Tick repeats it on the model's rng.Source.
func (d ServiceDist) sample(r *rand.Rand) float64 {
	if d.V == 0 {
		return d.Mean
	}
	return d.Mean * ((1 - d.V) + d.V*r.ExpFloat64())
}

// Tick advances the queue by dt seconds with Poisson arrivals at
// arrivalRate (requests/second) and the given service distribution, and
// returns latency statistics for the tick. slo (seconds) is used only to
// estimate ViolationFrac; pass 0 to skip.
func (m *Model) Tick(arrivalRate, dt float64, svc ServiceDist, slo float64) (TickResult, error) {
	if dt <= 0 {
		return TickResult{}, fmt.Errorf("queue: dt must be > 0, got %g", dt)
	}
	if arrivalRate < 0 {
		return TickResult{}, fmt.Errorf("queue: arrivalRate must be >= 0, got %g", arrivalRate)
	}
	if !(svc.Mean > 0) || !(svc.V >= 0 && svc.V <= 1) {
		return TickResult{}, fmt.Errorf("queue: service distribution needs Mean > 0 and V in [0, 1], got %+v", svc)
	}

	c := float64(m.servers)
	capacity := c * dt / svc.Mean // requests servable this tick
	offered := arrivalRate * dt
	demand := offered + m.backlog
	completed := math.Min(demand, capacity)
	newBacklog := demand - completed
	// Client timeout: queue positions whose drain time exceeds maxDelay
	// are abandoned. They count as violations below.
	var dropped float64
	if m.maxDelay > 0 {
		maxBacklog := m.maxDelay * c / svc.Mean
		if newBacklog > maxBacklog {
			dropped = newBacklog - maxBacklog
			newBacklog = maxBacklog
		}
	}
	rho := arrivalRate * svc.Mean / c

	// Backlog-induced delay seen by an arrival: the time to drain the
	// queue ahead of it. Interpolated linearly across the tick from the
	// start backlog to the end backlog.
	d0 := m.backlog * svc.Mean / c
	dEnd := newBacklog * svc.Mean / c

	// Stationary waiting applies only in the stable regime.
	var pWait, condWaitMean float64
	if rho < 1 {
		pWait = erlangC(m.servers, rho)
		condWaitMean = svc.Mean * (1 + svc.CV2()) / 2 / (c * (1 - rho))
	}

	if cap(m.scratch) < mcDraws {
		m.scratch = make([]float64, mcDraws)
	}
	draws := m.scratch[:mcDraws]
	d := sojourn{
		svc: svc, d0: d0, ramp: dEnd - d0,
		waits: rho < 1, pWait: pWait, condWaitMean: condWaitMean,
		slo: slo,
	}
	var sum, p50, p99 float64
	var violations int
	if m.ref != nil {
		sum, violations = d.drawRef(m.ref, draws)
		p50, p99 = m.Quantiles(draws)
	} else {
		var lo, hi uint64
		sum, violations, lo, hi = d.draw(m.src, draws)
		p50, p99 = m.bucketQuantiles(draws, lo, hi)
	}
	res := TickResult{
		Completed:   completed,
		Offered:     offered,
		P50:         p50,
		P99:         p99,
		Mean:        sum / mcDraws,
		Utilization: rho,
		Backlog:     newBacklog,
		Dropped:     dropped,
	}
	if slo > 0 {
		served := completed
		frac := float64(violations) / mcDraws
		if total := served + dropped; total > 0 {
			res.ViolationFrac = (frac*served + dropped) / total
		}
	}
	m.backlog = newBacklog
	m.ticks++
	m.draws += mcDraws
	return res, nil
}

// sojourn holds one tick's Monte Carlo parameters. A draw is the arrival
// position tau, then a service time (none when svc.V == 0), then, in the
// stable regime, the wait coin and an exponential wait if it lands.
type sojourn struct {
	svc          ServiceDist
	d0, ramp     float64 // backlog delay at the tick's start, and its change over the tick
	waits        bool    // stable regime: draw the Erlang-C wait
	pWait        float64
	condWaitMean float64
	slo          float64
}

// draw fills draws on the inlinable source and returns their sum, the
// number above the SLO, and the smallest and largest bit patterns among
// them (bitRange, for the quantile kernel).
func (d *sojourn) draw(src *rng.Source, draws []float64) (sum float64, violations int, lo, hi uint64) {
	mean, v := d.svc.Mean, d.svc.V
	lo = math.MaxUint64
	for i := range draws {
		tau := src.Float64() // arrival position within the tick
		s := mean
		if v != 0 {
			j := src.Uint32()
			e, ok := rng.ExpFast(j)
			if !ok {
				e = src.ExpSlow(j)
			}
			s = mean * ((1 - v) + v*e)
		}
		t := s + d.d0 + d.ramp*tau
		if d.waits && src.Float64() < d.pWait {
			j := src.Uint32()
			e, ok := rng.ExpFast(j)
			if !ok {
				e = src.ExpSlow(j)
			}
			t += e * d.condWaitMean
		}
		draws[i] = t
		sum += t
		if d.slo > 0 && t > d.slo {
			violations++
		}
		b := math.Float64bits(t)
		lo = min(lo, b)
		hi = max(hi, b)
	}
	return sum, violations, lo, hi
}

// drawRef is draw on math/rand's own generator, the reference loop.
func (d *sojourn) drawRef(r *rand.Rand, draws []float64) (sum float64, violations int) {
	for i := range draws {
		tau := r.Float64() // arrival position within the tick
		t := d.svc.sample(r) + d.d0 + d.ramp*tau
		if d.waits && r.Float64() < d.pWait {
			t += r.ExpFloat64() * d.condWaitMean
		}
		draws[i] = t
		sum += t
		if d.slo > 0 && t > d.slo {
			violations++
		}
	}
	return sum, violations
}

// Quantiles extracts the P50 and P99 order statistics from one tick's
// sojourn draws; it may reorder the slice. This is the per-tick quantile
// kernel: the bucket kernel (bucketQuantiles) by default, the original
// full sort under SetReference. Both return identical values; it is
// exported so the perf baseline can measure the kernel apart from draw
// generation.
func (m *Model) Quantiles(draws []float64) (p50, p99 float64) {
	if m.ref != nil {
		sortFloats(draws)
		return quantileSorted(draws, 0.50), quantileSorted(draws, 0.99)
	}
	lo, hi := bitRange(draws)
	return m.bucketQuantiles(draws, lo, hi)
}

// bitRange returns the smallest and largest bit patterns in a.
func bitRange(a []float64) (lo, hi uint64) {
	lo = math.MaxUint64
	for _, x := range a {
		b := math.Float64bits(x)
		lo = min(lo, b)
		hi = max(hi, b)
	}
	return lo, hi
}

// quantileBuckets is the bucket kernel's histogram size.
const (
	quantileBits    = 11
	quantileBuckets = 1 << quantileBits
)

// bucketQuantiles is the default quantile kernel: it returns the P50 and
// P99 order statistics of a, given lo and hi, the smallest and largest bit
// patterns in a (bitRange). Non-negative finite float64s order exactly as
// their bit patterns do, so one pass counts a into at most quantileBuckets
// equal-width buckets of pattern offsets from lo, a scan from each end
// finds the buckets holding the two ranks, and a second pass copies those
// two buckets out so selectKth runs only inside them. A negative draw (−0
// included), +Inf or NaN has a pattern at or above +Inf's, and sends the
// whole buffer to selectKth.
func (m *Model) bucketQuantiles(a []float64, lo, hi uint64) (p50, p99 float64) {
	k50, k99 := quantileIndex(len(a), 0.50), quantileIndex(len(a), 0.99)
	if len(a) == 0 || hi >= math.Float64bits(math.Inf(1)) {
		return selectKth(a, k50), selectKth(a, k99)
	}
	if lo == hi {
		return a[0], a[0]
	}
	shift := uint(max(bits.Len64(hi-lo)-quantileBits, 0))
	top := int((hi - lo) >> shift) // < quantileBuckets
	h := &m.hist
	clear(h[:top+1])
	for _, x := range a {
		h[(math.Float64bits(x)-lo)>>shift&(quantileBuckets-1)]++
	}
	// below50 counts the draws in buckets before b50, above99 those after b99.
	b50, below50 := 0, 0
	for below50+int(h[b50]) <= k50 {
		below50 += int(h[b50])
		b50++
	}
	b99, above99 := top, 0
	for above99+int(h[b99]) < len(a)-k99 {
		above99 += int(h[b99])
		b99--
	}
	n50, n99 := int(h[b50]), int(h[b99])
	r50, r99 := k50-below50, k99-(len(a)-above99-n99) // ranks inside the buckets
	shared := b50 == b99
	if shared { // gather the one bucket once
		b99, n99 = -1, 0
	}
	// Bucket b50's draws go to sel[:n50] and b99's to sel[n50+1:]. Every
	// draw is stored at both write positions, branch-free, but only a
	// member advances its bucket's; each region has one spare slot.
	if cap(m.sel) < len(a)+2 {
		m.sel = make([]float64, len(a)+2)
	}
	sel := m.sel[:n50+n99+2]
	w50, w99 := 0, n50+1
	for _, x := range a {
		k := int((math.Float64bits(x) - lo) >> shift)
		sel[w50] = x
		if k == b50 {
			w50++
		}
		sel[w99] = x
		if k == b99 {
			w99++
		}
	}
	s50 := sel[:n50]
	if shared {
		return selectKth(s50, r50), selectKth(s50, r99)
	}
	return selectKth(s50, r50), selectKth(sel[n50+1:n50+1+n99], r99)
}

// StationaryP99 returns the analytic steady-state P99 sojourn time for the
// given arrival rate and service distribution, or +Inf when the queue is
// unstable. Used by tests and by offline profiling (it avoids Monte Carlo
// noise when searching for knee points).
func (m *Model) StationaryP99(arrivalRate float64, svc ServiceDist) float64 {
	c := float64(m.servers)
	rho := arrivalRate * svc.Mean / c
	if rho >= 1 {
		return math.Inf(1)
	}
	pWait := erlangC(m.servers, rho)
	condWaitMean := svc.Mean * (1 + svc.CV2()) / 2 / (c * (1 - rho))
	// P(T > x) ~= P(S > x-ish) combined with waiting tail. With service
	// far smaller than the tail target, waiting dominates:
	// P(W > x) = pWait * exp(-x/condWaitMean)  =>  x such that P = 0.01.
	if pWait <= 0.01 {
		// Waiting almost never happens; P99 is essentially service.
		return svc.Mean * (1 + 2*math.Sqrt(svc.CV2()))
	}
	w99 := condWaitMean * math.Log(pWait/0.01)
	if w99 < 0 {
		w99 = 0
	}
	return w99 + svc.Mean
}

// erlangC returns the Erlang-C probability that an arrival must wait in an
// M/M/c queue with c servers at utilization rho (per-server). Computed via
// the numerically stable iterative form of the Erlang-B recursion.
func erlangC(c int, rho float64) float64 {
	if rho >= 1 {
		return 1
	}
	if rho <= 0 {
		return 0
	}
	a := rho * float64(c) // offered load in Erlangs
	// Erlang-B recursion: B(0)=1; B(k) = a*B(k-1) / (k + a*B(k-1)).
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	// Erlang-C from Erlang-B.
	return b / (1 - rho*(1-b))
}

// sortFloats is an insertion-free shell sort adequate for the fixed-size
// Monte Carlo buffers; it avoids pulling in sort.Float64s allocations on
// the hot path (sort.Float64s does not allocate, but the interface call
// per comparison is measurable at 2048 elements × every tick).
func sortFloats(a []float64) {
	gaps := [...]int{701, 301, 132, 57, 23, 10, 4, 1}
	for _, gap := range gaps {
		for i := gap; i < len(a); i++ {
			v := a[i]
			j := i
			for ; j >= gap && a[j-gap] > v; j -= gap {
				a[j] = a[j-gap]
			}
			a[j] = v
		}
	}
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[quantileIndex(len(sorted), q)]
}

// quantileIndex returns the order-statistic index quantileSorted reads for
// quantile q over n elements.
func quantileIndex(n int, q float64) int {
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// selectKth partitions a in place until a[k] holds the k-th smallest
// element and returns it — the same value quantileSorted would read at
// index k after a full sort, without the O(n log n) sort. The
// median-of-three pivot keeps selection deterministic (no RNG use, so the
// Monte Carlo stream is untouched).
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[k]
}
