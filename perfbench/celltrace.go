package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// traceSimWorkload produces the per-layer split of a batch. It runs every
// cell twice, serially: once the way sim.RunCells does (untraced, the
// reference) and once through the benchmark's traced copy, then checks
// that both computed the same thing. Serial runs make the spans add up to
// wall time, and make the two walls comparable for the overhead figure.
func traceSimWorkload(ctx context.Context, w simWorkload) (outcome, error) {
	out := outcome{values: map[string]float64{}, correct: true}
	refs := make([]cellOutcome, len(w.cells))
	start := time.Now()
	for i, c := range w.cells {
		ref, err := untracedCell(ctx, c.Spec)
		if err != nil {
			return out, fmt.Errorf("untraced cell %s: %w", c.Label, err)
		}
		refs[i] = ref
	}
	untraced := time.Since(start)

	var eval, train layerTimes
	var pretrain time.Duration
	var rlUpdates int
	var violationRates []float64
	equal := true
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start = time.Now()
	for i, c := range w.cells {
		got, ct, err := tracedCell(ctx, c.Spec)
		if err != nil {
			return out, fmt.Errorf("traced cell %s: %w", c.Label, err)
		}
		out.attempted++
		if d := got.diff(refs[i]); d != "" {
			equal = false
			notef("trace_divergent: cell %s: %s", c.Label, d)
		}
		eval.add(&ct.eval)
		train.add(&ct.train)
		pretrain += ct.pretrain
		rlUpdates += ct.rlUpdates
		violationRates = append(violationRates, ratio(got.LCViolations, got.LCRequests))
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)

	v := out.values
	for p := phase(0); p < numPhases; p++ {
		v[phaseNames[p]] = eval.d[p].Seconds()
		if p != phPolicy {
			v["train."+phaseNames[p]] = train.d[p].Seconds()
		}
	}
	v["sim.pretrain_s"] = pretrain.Seconds()
	v["pebs.samples"] = float64(eval.samples)
	v["pebs.ns_per_sample"] = ratio(float64(eval.d[phPEBS].Nanoseconds()), float64(eval.samples))
	v["train.pebs.samples"] = float64(train.samples)
	v["queue.draws"] = float64(eval.queueDraws)
	v["train.queue.draws"] = float64(train.queueDraws)
	v["mem.promoted_pages"] = float64(eval.promoted)
	v["mem.demoted_pages"] = float64(eval.demoted)
	v["core.ppm.decisions"] = float64(eval.decisions)
	v["core.ppm.ms_per_decision"] = ratio(eval.d[phPPM].Seconds()*1e3, float64(eval.decisions))
	v["train.core.ppm.decisions"] = float64(train.decisions)
	v["rl.updates"] = float64(rlUpdates)
	// SAC updates run inside PP-M decisions while training, so this is
	// training decide time per update: an upper bound on the update cost.
	v["rl.us_per_update"] = ratio(train.d[phPPM].Seconds()*1e6, float64(rlUpdates))
	v["sim.wall_s"] = wall.Seconds()
	v["sim.other_s"] = (wall - eval.total() - train.total()).Seconds()
	v["sim.ticks_per_s"] = float64(eval.ticks+train.ticks) / wall.Seconds()
	v["sim.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	v["sim.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	v["trace.untraced_wall_s"] = untraced.Seconds()
	v["trace.overhead_pct"] = 100 * (wall.Seconds() - untraced.Seconds()) / untraced.Seconds()
	v["lc_violation_rate"] = mean(violationRates)
	v["trace.equal"] = 0
	if equal {
		v["trace.equal"] = 1
	}
	return out, nil
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
