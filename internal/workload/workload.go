// Package workload models the paper's benchmarks: the four latency-critical
// services of Table 1 (Redis, Memcached, MongoDB, Silo) and the four
// best-effort applications of Table 2 (SSSP, BFS, PR, XSBench).
//
// An LC workload converts offered load plus current page placement into
// per-request service times and runs them through an M/G/c queue to obtain
// tail latency. A BE workload converts page placement into a throughput
// slowdown. Both expose their page-access popularity so the PEBS sampler
// can maintain the hotness counters every policy consumes.
package workload

import (
	"fmt"

	"github.com/tieredmem/mtat/internal/dist"
	"github.com/tieredmem/mtat/internal/mem"
)

// Kind distinguishes latency-critical from best-effort workloads.
type Kind int

// Workload kinds. Enums start at one so the zero value is invalid.
const (
	KindLC Kind = iota + 1
	KindBE
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindLC:
		return "LC"
	case KindBE:
		return "BE"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// DistKind selects the page-access popularity shape of a workload.
type DistKind int

// Distribution kinds.
const (
	DistUniform DistKind = iota + 1
	DistZipf
	DistZipfScanMix // Zipf mixed with a sequential scan component
)

// DistSpec describes an access distribution to be instantiated over a
// workload's page count once the workload is attached to a memory system.
type DistSpec struct {
	Kind DistKind
	// Theta is the Zipf exponent (DistZipf, DistZipfScanMix).
	Theta float64
	// ScanWeight is the scan component's mixture weight in (0,1)
	// (DistZipfScanMix only).
	ScanWeight float64
}

// build instantiates the distribution over n items. Zipf tables are
// shared between workloads of the same shape (dist.NewZipf); a Scan
// component is stateful, so every build gets its own.
func (ds DistSpec) build(n int) (dist.Distribution, error) {
	switch ds.Kind {
	case DistUniform:
		return dist.NewUniform(n)
	case DistZipf:
		return dist.NewZipf(n, ds.Theta)
	case DistZipfScanMix:
		if ds.ScanWeight <= 0 || ds.ScanWeight >= 1 {
			return nil, fmt.Errorf("workload: ScanWeight must be in (0,1), got %g", ds.ScanWeight)
		}
		z, err := dist.NewZipf(n, ds.Theta)
		if err != nil {
			return nil, err
		}
		s, err := dist.NewScan(n)
		if err != nil {
			return nil, err
		}
		return dist.NewMixture(
			[]dist.Distribution{z, s},
			[]float64{1 - ds.ScanWeight, ds.ScanWeight},
		)
	default:
		return nil, fmt.Errorf("workload: unknown distribution kind %d", ds.Kind)
	}
}

// pageProbs returns, for each of the workload's pages, the probability that
// one access lands on that page, assuming items map onto pages in hotness
// rank order (page p covers item ranks [p*ipp, (p+1)*ipp)).
func pageProbs(d dist.Distribution, numPages int) []float64 {
	probs := make([]float64, numPages)
	n := d.N()
	for p := 0; p < numPages; p++ {
		lo := int(float64(p) / float64(numPages) * float64(n))
		hi := int(float64(p+1) / float64(numPages) * float64(n))
		if p == numPages-1 {
			hi = n
		}
		probs[p] = d.CDF(hi) - d.CDF(lo)
	}
	return probs
}

// hitCache holds a workload's FMem hit ratio: the sum of its page
// probabilities over FMem-resident pages. It is recomputed only when the
// memory system reports that the workload's placement changed, with the
// same pages, probabilities and summation order, so a cached value is
// bit-identical to a fresh one.
type hitCache struct {
	probs   []float64 // per-page access probability, allocation order
	version uint64    // placement version hit was computed at
	valid   bool
	hit     float64
}

// ratio returns the hit ratio of workload id under sys's current placement.
func (c *hitCache) ratio(sys *mem.System, id mem.WorkloadID) float64 {
	if v := sys.PlacementVersion(id); !c.valid || v != c.version {
		c.hit, c.version, c.valid = hitRatio(sys, id, c.probs), v, true
	}
	return c.hit
}

// hitRatio sums page probabilities over FMem-resident pages, in
// allocation order, reading only the FMem occupancy bits of id's pages.
func hitRatio(sys *mem.System, id mem.WorkloadID, probs []float64) float64 {
	return min(sys.FMemWeight(id, probs), 1)
}
