package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"

	"github.com/tieredmem/mtat/internal/core"
	"github.com/tieredmem/mtat/internal/policy"
	"github.com/tieredmem/mtat/internal/sim"
)

// simWorkload is a batch of paper-geometry cells run through sim.RunCells.
type simWorkload struct {
	cells []sim.Cell
	// perCell runs the batch one sim.RunCells call per cell (serial,
	// timed per cell, including pretraining); otherwise the whole batch
	// is one call on workers goroutines.
	perCell bool
	workers int
}

// mtatCells is two paper-scale mtat-full cells, one under the Figure 7
// ramp and one under a diurnal load. Both share the seed, so both
// pretrain on an identical key.
func mtatCells(seed int64) simWorkload {
	base := sim.RunSpec{
		LC: "redis", BEs: []string{"sssp", "bfs", "pr", "xsbench"},
		Policy: "mtat-full", Scale: 1, Seed: seed, Episodes: 3,
	}
	ramp, diurnal := base, base
	ramp.Load = &sim.LoadSpec{Kind: "fig7"}
	diurnal.Load = &sim.LoadSpec{Kind: "diurnal", Low: 0.2, High: 1.0, PeriodSeconds: 120, Cycles: 2}
	return simWorkload{
		cells: []sim.Cell{
			{Index: 0, Label: "load=fig7", Spec: ramp},
			{Index: 1, Label: "load=diurnal", Spec: diurnal},
		},
		perCell: true,
		workers: 1,
	}
}

// sweepPolicies are the baselines of the sweep workload.
var sweepPolicies = []string{"memtis", "tpp", "vtmm", "heuristic", "memtis-region"}

// baselineSweep is every baseline policy × two seeds under the Figure 7
// ramp, run on one worker per CPU.
func baselineSweep(seed int64) simWorkload {
	var w simWorkload
	for _, pol := range sweepPolicies {
		for k := int64(0); k < 2; k++ {
			spec := sim.RunSpec{
				LC: "redis", BEs: []string{"sssp", "bfs", "pr", "xsbench"},
				Policy: pol, Scale: 1, Seed: seed + k,
				Load: &sim.LoadSpec{Kind: "fig7"},
			}
			w.cells = append(w.cells, sim.Cell{
				Index: len(w.cells),
				Label: fmt.Sprintf("policy=%s,seed=%d", pol, spec.Seed),
				Spec:  spec,
			})
		}
	}
	w.workers = runtime.NumCPU()
	return w
}

// expectedTicks is the tick count a correct run of spec must report.
func expectedTicks(spec sim.RunSpec) (int, error) {
	scn, err := spec.Scenario()
	if err != nil {
		return 0, err
	}
	scn = withDefaults(scn)
	return int(math.Round(scn.DurationSeconds / scn.TickSeconds)), nil
}

// setupReps is how many times set-up is repeated; setup_s is the median.
const setupReps = 15

// measureSetup times what every cell of the batch does before its first
// tick: spec validation, scenario building and sim.NewRunner (memory
// system, workloads, PEBS sampler, policy Init including MTAT's offline
// BE profiling). Training is excluded: it is part of cell_s.
func measureSetup(w simWorkload) (float64, error) {
	var reps []float64
	for r := 0; r < setupReps; r++ {
		// Collect first, so that the garbage of the previous repetition
		// is not charged to this one.
		runtime.GC()
		start := time.Now()
		for _, c := range w.cells {
			scn, err := c.Spec.Scenario()
			if err != nil {
				return 0, err
			}
			pol, err := untrainedPolicy(c.Spec.PolicyName(), scn)
			if err != nil {
				return 0, err
			}
			if _, err := sim.NewRunner(scn, pol); err != nil {
				return 0, err
			}
		}
		reps = append(reps, time.Since(start).Seconds())
	}
	return median(reps), nil
}

// untrainedPolicy builds the named policy without pretraining.
func untrainedPolicy(name string, scn sim.Scenario) (policy.Policy, error) {
	switch name {
	case "mtat-full", "mtat-lconly":
		variant := core.VariantFull
		if name == "mtat-lconly" {
			variant = core.VariantLCOnly
		}
		cfg, err := sim.MTATConfigFor(scn)
		if err != nil {
			return nil, err
		}
		return core.New(variant, cfg)
	default:
		return sim.NewPolicy(context.Background(), name, scn, 0)
	}
}

// runSimWorkload measures a batch with tracing off. It runs whole batches
// until one more would not fit in seconds; the first always runs.
func runSimWorkload(ctx context.Context, w simWorkload, seconds float64) (outcome, error) {
	out := outcome{values: map[string]float64{}, correct: true}
	setup, err := measureSetup(w)
	if err != nil {
		return out, fmt.Errorf("set-up: %w", err)
	}
	want := make([]int, len(w.cells))
	for i, c := range w.cells {
		if want[i], err = expectedTicks(c.Spec); err != nil {
			return out, err
		}
	}

	var cellSecs, p99s, fairness []float64
	var elapsed, lastBatch time.Duration
	cpu0 := selfCPUSeconds()
	for elapsed == 0 || elapsed+lastBatch <= time.Duration(seconds*float64(time.Second)) {
		start := time.Now()
		var results []sim.CellResult
		if w.perCell {
			for _, c := range w.cells {
				t := time.Now()
				results = append(results, sim.RunCells(ctx, []sim.Cell{c}, 1, false)...)
				cellSecs = append(cellSecs, time.Since(t).Seconds())
			}
		} else {
			results = sim.RunCells(ctx, w.cells, w.workers, false)
		}
		lastBatch = time.Since(start)
		elapsed += lastBatch
		if err := ctx.Err(); err != nil {
			return out, err
		}
		for i, r := range results {
			out.attempted++
			switch {
			case r.Err != nil:
				out.failed++
				out.correct = false
				notef("cell %s failed: %v", r.Label, r.Err)
				continue
			case r.Result.Ticks != want[i]:
				out.correct = false
				notef("cell %s ran %d ticks, want %d", r.Label, r.Result.Ticks, want[i])
			}
			if !w.perCell {
				// RunCells does not time cells for its caller; the
				// Runner's own wall time covers the whole cell, since
				// baseline policies need no training.
				cellSecs = append(cellSecs, r.Result.Core.WallSeconds)
			}
			p99s = append(p99s, 1e3*r.Result.LCMeanP99)
			fairness = append(fairness, r.Result.BEFairness)
			fmt.Fprintf(os.Stderr, "perfbench: cell %s: lc violation rate %.6f, lc mean p99 %.6f ms, be fairness %.6f\n",
				r.Label, r.Result.LCViolationRate, 1e3*r.Result.LCMeanP99, r.Result.BEFairness)
		}
	}

	out.values["setup_s"] = setup
	out.values["peak_rss_mb"] = selfPeakRSSMB()
	out.values["cell_s"] = median(cellSecs)
	out.values["cells_per_s"] = float64(out.attempted) / elapsed.Seconds()
	out.values["cpu_s_per_cell"] = (selfCPUSeconds() - cpu0) / float64(out.attempted)
	out.values["lc_mean_p99_ms"] = mean(p99s)
	out.values["be_fairness"] = mean(fairness)
	return out, nil
}

// selfPeakRSSMB is this process's peak resident set size.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// selfCPUSeconds is the user plus system CPU time this process has used.
// Unlike wall time it does not grow when the host steals the CPU.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
