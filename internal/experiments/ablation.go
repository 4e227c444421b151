package experiments

import (
	"fmt"
	"io"

	"github.com/tieredmem/mtat/internal/core"
	"github.com/tieredmem/mtat/internal/sim"
)

// runAblation quantifies MTAT's design choices by disabling them one at a
// time and re-running the Figure 5 dynamic-load scenario (Redis + the BE
// set). Each variant trains its own agent under the modified
// configuration, so the numbers capture the end-to-end effect on both
// learning and control:
//
//   - no-guard: ReactiveGuard off — nothing forces growth after an SLO
//     breach, so recovery is at the mercy of the learned policy alone.
//   - sym-shrink: ShrinkFactor 1.0 — releases are as fast as grabs; a
//     single noisy shrink decision at peak can gut the LC partition.
//   - no-hold: HighLoadHold disabled — the agent may release LC memory
//     while demand is at its peak.
//   - even-be: the annealing search degenerates to an even split
//     (MaxIters 1), removing fairness-aware BE partitioning.
//   - untrained: the agent runs online from scratch during the measured
//     run (no pre-training episodes).
func runAblation(s *Suite, w io.Writer) error {
	scn, err := s.scenario("redis", 0, 0, nil)
	if err != nil {
		return err
	}
	base, err := sim.MTATConfigFor(scn)
	if err != nil {
		return err
	}

	type variantSpec struct {
		name  string
		mut   func(*core.PPMConfig)
		train bool
	}
	variants := []variantSpec{
		{"full (baseline)", func(*core.PPMConfig) {}, true},
		{"no-guard", func(c *core.PPMConfig) { c.ReactiveGuard = false }, true},
		{"sym-shrink", func(c *core.PPMConfig) { c.ShrinkFactor = 1.0 }, true},
		{"no-hold", func(c *core.PPMConfig) { c.HighLoadHold = 10 }, true},
		{"even-be", func(c *core.PPMConfig) { c.Anneal.MaxIters = 1 }, true},
		{"untrained", func(*core.PPMConfig) {}, false},
	}

	fmt.Fprintln(w, "Ablation: MTAT (Full) design choices on the Figure 5 Redis scenario")
	fmt.Fprintf(w, "%-18s %10s %12s %12s %12s\n",
		"variant", "viol rate", "max P99(ms)", "BE fairness", "BE tput")

	type row struct {
		name                         string
		viol, maxP99, fairness, tput float64
	}
	var rows []row
	for _, v := range variants {
		cfg := base
		v.mut(&cfg)
		var m *core.MTAT
		var err error
		if v.train {
			m, err = s.train(core.VariantFull, cfg, scn, "ablation variant "+v.name)
		} else {
			m, err = core.New(core.VariantFull, cfg)
		}
		if err != nil {
			return err
		}
		res, err := sim.RunScenario(scn, m)
		if err != nil {
			return fmt.Errorf("experiments: ablation %s: %w", v.name, err)
		}
		rows = append(rows, row{v.name, res.LCViolationRate, res.LCMaxP99,
			res.BEFairness, res.BEThroughput})
		fmt.Fprintf(w, "%-18s %9.2f%% %12.1f %12.3f %12.4g\n",
			v.name, res.LCViolationRate*100, res.LCMaxP99*1000,
			res.BEFairness, res.BEThroughput)
	}
	return s.writeCSV("ablation.csv", func(cw io.Writer) error {
		fmt.Fprintln(cw, "variant,violation_rate,max_p99_ms,be_fairness,be_throughput")
		for _, r := range rows {
			fmt.Fprintf(cw, "%s,%g,%g,%g,%g\n",
				r.name, r.viol, r.maxP99*1000, r.fairness, r.tput)
		}
		return nil
	})
}
