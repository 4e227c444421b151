// Package simtest is the differential equivalence harness for the
// simulator core. The hot paths of internal/mem, internal/pebs,
// internal/hist, and internal/queue each retain their original (seed)
// implementation behind a reference-mode switch; this package runs the
// same sim.RunSpec + seed through both the reference and the optimized
// core and asserts byte-identical outcomes — final page placements and
// hotness, promotion/demotion counts, SLO violations, latency series, and
// the deterministic CoreStats counters.
//
// Fingerprints are canonical SHA-256 digests over the deterministic run
// outputs (floats hashed via math.Float64bits, wall-clock and allocator
// fields excluded), so "equivalent" means bit-equal, not approximately
// equal. The same fingerprints back the golden determinism fixtures for
// the committed hypotheses/ specs (re-pin with -update) and the
// parallel-cell determinism tests.
package simtest

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"github.com/tieredmem/mtat/internal/mem"
	"github.com/tieredmem/mtat/internal/policy"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/stats"
)

// Run is one scenario execution captured for equivalence checking: the
// run's Result plus the final memory-system state the Result does not
// carry (per-page placement and hotness).
type Run struct {
	Result *sim.Result
	// Placement holds one byte per page: 1 if FMem-resident, else 0.
	Placement []byte
	// Hotness holds the final effective hotness counter per page.
	Hotness []uint64
}

// RunSpec executes spec once and captures the run. referenceCore selects
// the retained seed implementations of the core hot paths.
func RunSpec(ctx context.Context, spec sim.RunSpec, referenceCore bool) (*Run, error) {
	scn, err := spec.Scenario()
	if err != nil {
		return nil, err
	}
	scn.ReferenceCore = referenceCore
	pol, err := sim.NewPolicy(ctx, spec.PolicyName(), scn, spec.Episodes)
	if err != nil {
		return nil, err
	}
	return runPolicy(ctx, scn, pol)
}

// runPolicy executes scn under pol and captures the run.
func runPolicy(ctx context.Context, scn sim.Scenario, pol policy.Policy) (*Run, error) {
	r, err := sim.NewRunner(scn, pol)
	if err != nil {
		return nil, err
	}
	res, err := r.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	sys := r.System()
	run := &Run{
		Result:    res,
		Placement: make([]byte, sys.NumPages()),
		Hotness:   make([]uint64, sys.NumPages()),
	}
	for pid := 0; pid < sys.NumPages(); pid++ {
		if sys.PageInFMem(mem.PageID(pid)) {
			run.Placement[pid] = 1
		}
		run.Hotness[pid] = sys.PageHotness(mem.PageID(pid))
	}
	return run, nil
}

// RunBoth executes spec through the reference core and the fast core and
// returns both runs (reference first).
func RunBoth(ctx context.Context, spec sim.RunSpec) (ref, fast *Run, err error) {
	if ref, err = RunSpec(ctx, spec, true); err != nil {
		return nil, nil, fmt.Errorf("reference core: %w", err)
	}
	if fast, err = RunSpec(ctx, spec, false); err != nil {
		return nil, nil, fmt.Errorf("fast core: %w", err)
	}
	return ref, fast, nil
}

// Fingerprint digests the deterministic outputs of a captured run.
func (r *Run) Fingerprint() string {
	h := sha256.New()
	writeResult(h, r.Result)
	writeStr(h, "placement")
	h.Write(r.Placement)
	writeStr(h, "hotness")
	for _, v := range r.Hotness {
		writeU64(h, v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ResultFingerprint digests only the sim.Result — the portable form used
// where the memory system is no longer live (e.g. sweep cells).
func ResultFingerprint(res *sim.Result) string {
	h := sha256.New()
	writeResult(h, res)
	return hex.EncodeToString(h.Sum(nil))
}

// Diff compares two runs field by field and returns a list of
// human-readable divergences (empty means equivalent). It exists so a
// failing equivalence test names what diverged instead of two opaque
// hashes.
func Diff(a, b *Run) []string {
	var diffs []string
	ra, rb := a.Result, b.Result
	if ra.Policy != rb.Policy {
		diffs = append(diffs, fmt.Sprintf("policy: %q vs %q", ra.Policy, rb.Policy))
	}
	if ra.Ticks != rb.Ticks {
		diffs = append(diffs, fmt.Sprintf("ticks: %d vs %d", ra.Ticks, rb.Ticks))
	}
	for _, c := range []struct {
		name string
		a, b float64
	}{
		{"lc_requests", ra.LCRequests, rb.LCRequests},
		{"lc_violations", ra.LCViolations, rb.LCViolations},
		{"lc_violation_rate", ra.LCViolationRate, rb.LCViolationRate},
		{"lc_max_p99", ra.LCMaxP99, rb.LCMaxP99},
		{"lc_mean_p99", ra.LCMeanP99, rb.LCMeanP99},
		{"be_fairness", ra.BEFairness, rb.BEFairness},
		{"be_throughput", ra.BEThroughput, rb.BEThroughput},
		{"migrated_bytes", float64(ra.MigratedBytes), float64(rb.MigratedBytes)},
	} {
		if math.Float64bits(c.a) != math.Float64bits(c.b) {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", c.name, c.a, c.b))
		}
	}
	if ra.SLOMet != rb.SLOMet {
		diffs = append(diffs, fmt.Sprintf("slo_met: %v vs %v", ra.SLOMet, rb.SLOMet))
	}
	if len(ra.BEs) != len(rb.BEs) {
		diffs = append(diffs, fmt.Sprintf("be count: %d vs %d", len(ra.BEs), len(rb.BEs)))
	} else {
		for i := range ra.BEs {
			if ra.BEs[i] != rb.BEs[i] {
				diffs = append(diffs, fmt.Sprintf("be[%d]: %+v vs %+v", i, ra.BEs[i], rb.BEs[i]))
			}
		}
	}
	diffs = append(diffs, diffSeries("time", ra.Time, rb.Time)...)
	diffs = append(diffs, diffSeries("p99", ra.LCP99, rb.LCP99)...)
	diffs = append(diffs, diffSeries("load", ra.LCLoadKRPS, rb.LCLoadKRPS)...)
	diffs = append(diffs, diffSeries("fmem_ratio", ra.LCFMemRatio, rb.LCFMemRatio)...)
	if ca, cb := ra.Core, rb.Core; ca != nil && cb != nil {
		for _, c := range []struct {
			name string
			a, b int64
		}{
			{"core.ticks", ca.Ticks, cb.Ticks},
			{"core.pages_promoted", ca.PagesPromoted, cb.PagesPromoted},
			{"core.pages_demoted", ca.PagesDemoted, cb.PagesDemoted},
			{"core.hotness_agings", ca.HotnessAgings, cb.HotnessAgings},
			{"core.pebs_samples", ca.PEBSSamples, cb.PEBSSamples},
			{"core.queue_ticks", ca.QueueTicks, cb.QueueTicks},
			{"core.queue_draws", ca.QueueDraws, cb.QueueDraws},
		} {
			if c.a != c.b {
				diffs = append(diffs, fmt.Sprintf("%s: %d vs %d", c.name, c.a, c.b))
			}
		}
	}
	if len(a.Placement) != len(b.Placement) {
		diffs = append(diffs, fmt.Sprintf("page count: %d vs %d", len(a.Placement), len(b.Placement)))
		return diffs
	}
	for pid := range a.Placement {
		if a.Placement[pid] != b.Placement[pid] {
			diffs = append(diffs, fmt.Sprintf("page %d tier: fmem=%d vs fmem=%d",
				pid, a.Placement[pid], b.Placement[pid]))
		}
		if a.Hotness[pid] != b.Hotness[pid] {
			diffs = append(diffs, fmt.Sprintf("page %d hotness: %d vs %d",
				pid, a.Hotness[pid], b.Hotness[pid]))
		}
		if len(diffs) > 20 {
			diffs = append(diffs, "... (truncated)")
			return diffs
		}
	}
	return diffs
}

func diffSeries(name string, a, b *stats.Series) []string {
	if a == nil || b == nil {
		if a != b {
			return []string{fmt.Sprintf("series %s: nil mismatch", name)}
		}
		return nil
	}
	if a.Len() != b.Len() {
		return []string{fmt.Sprintf("series %s: %d vs %d points", name, a.Len(), b.Len())}
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return []string{fmt.Sprintf("series %s[%d] (t=%g): %v vs %v",
				name, i, a.Times[i], a.Values[i], b.Values[i])}
		}
	}
	return nil
}

// writeResult hashes the deterministic fields of a Result. Wall-clock and
// allocator CoreStats fields are excluded: they legitimately vary across
// machines, core implementations, and concurrent load.
func writeResult(h hash.Hash, res *sim.Result) {
	writeStr(h, "policy")
	writeStr(h, res.Policy)
	writeU64(h, uint64(res.Ticks))
	writeF64(h, res.LCRequests)
	writeF64(h, res.LCViolations)
	writeF64(h, res.LCViolationRate)
	writeF64(h, res.LCMaxP99)
	writeF64(h, res.LCMeanP99)
	if res.SLOMet {
		writeU64(h, 1)
	} else {
		writeU64(h, 0)
	}
	writeF64(h, res.BEFairness)
	writeF64(h, res.BEThroughput)
	writeU64(h, uint64(res.MigratedBytes))
	writeStr(h, "bes")
	for _, be := range res.BEs {
		writeStr(h, be.Name)
		writeF64(h, be.Throughput)
		writeF64(h, be.PerfFull)
		writeF64(h, be.NP)
		writeF64(h, be.AvgFMemPages)
	}
	writeSeries(h, res.Time)
	writeSeries(h, res.LCP99)
	writeSeries(h, res.LCLoadKRPS)
	writeSeries(h, res.LCFMemRatio)
	if res.BEFMem != nil {
		for _, s := range res.BEFMem.Series() {
			writeSeries(h, s)
		}
	}
	if c := res.Core; c != nil {
		writeStr(h, "core")
		writeU64(h, uint64(c.Ticks))
		writeU64(h, uint64(c.PagesPromoted))
		writeU64(h, uint64(c.PagesDemoted))
		writeU64(h, uint64(c.HotnessAgings))
		writeU64(h, uint64(c.PEBSSamples))
		writeU64(h, uint64(c.QueueTicks))
		writeU64(h, uint64(c.QueueDraws))
	}
}

func writeSeries(h hash.Hash, s *stats.Series) {
	if s == nil {
		writeStr(h, "series:nil")
		return
	}
	writeStr(h, "series:"+s.Name)
	writeU64(h, uint64(s.Len()))
	for i := range s.Values {
		writeF64(h, s.Times[i])
		writeF64(h, s.Values[i])
	}
}

func writeStr(h hash.Hash, s string) {
	writeU64(h, uint64(len(s)))
	h.Write([]byte(s))
}

func writeU64(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

func writeF64(h hash.Hash, v float64) {
	writeU64(h, math.Float64bits(v))
}
