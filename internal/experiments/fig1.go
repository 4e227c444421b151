package experiments

import (
	"fmt"
	"io"

	"github.com/tieredmem/mtat/internal/mem"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/stats"
	"github.com/tieredmem/mtat/internal/workload"
)

// fig1Ratios are the FMem allocation levels of Figure 1.
var fig1Ratios = []float64{0, 0.25, 0.50, 0.75, 1.00}

// fig1HitRatio converts an "FMem X%" allocation into the LC hit ratio:
// X% of FMem capacity holds that many of the workload's (uniformly
// accessed) pages.
func fig1HitRatio(sys *mem.System, lc *workload.LC, ratio float64) float64 {
	pages := ratio * float64(sys.FMemCapacityPages())
	h := pages / float64(sys.TotalPages(lc.ID()))
	if h > 1 {
		h = 1
	}
	return h
}

// fig1LC places the named LC workload alone on the suite's scaled paper
// geometry, all of it in SMem, and returns it with its max sustainable
// load fraction at each Figure 1 allocation ratio (Figure 2's load
// steps).
func fig1LC(s *Suite, lcName string) (*mem.System, *workload.LC, []float64, error) {
	scn, err := sim.PaperScenario(sim.PaperScenarioOpts{
		LCName:  lcName,
		BENames: []string{},
		Scale:   s.cfg.Scale,
		Seed:    s.cfg.Seed,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	sys, err := mem.NewSystem(scn.Mem)
	if err != nil {
		return nil, nil, nil, err
	}
	lc, err := workload.NewLC(sys, scn.LC, mem.TierSMem, s.cfg.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	maxFracs := make([]float64, len(fig1Ratios))
	for i, ratio := range fig1Ratios {
		maxFracs[i] = lc.MaxStableLoadFrac(fig1HitRatio(sys, lc, ratio), 0)
	}
	return sys, lc, maxFracs, nil
}

// runFig1 reproduces Figure 1: per LC workload, P99 latency versus offered
// load at FMem allocations of 0/25/50/75/100%, using the steady-state
// queueing model. The knee of the FMem-100% curve defines the SLO, and the
// max SLO-compliant load per allocation is reported.
func runFig1(s *Suite, w io.Writer) error {
	fmt.Fprintln(w, "Figure 1: LC tail latency vs load at FMem 0/25/50/75/100%")
	for _, name := range s.cfg.LCNames {
		sys, lc, maxFracs, err := fig1LC(s, name)
		if err != nil {
			return err
		}
		cfg := lc.Config()

		fmt.Fprintf(w, "\n%s (SLO %.0f ms):\n", cfg.Name, cfg.SLOSeconds*1000)
		fmt.Fprintf(w, "  %-9s %14s %12s\n", "FMem", "max KRPS", "vs FMem100%")
		ref := maxFracs[len(maxFracs)-1]
		for i, ratio := range fig1Ratios {
			fmt.Fprintf(w, "  %-9s %14.1f %12.3f\n",
				fmt.Sprintf("%.0f%%", ratio*100),
				maxFracs[i]*cfg.MaxLoadRPS/1000,
				maxFracs[i]/ref)
		}

		// CSV: the full latency curves.
		err = s.writeCSV(fmt.Sprintf("fig1_%s.csv", cfg.Name), func(cw io.Writer) error {
			set := stats.NewSeriesSet()
			for _, ratio := range fig1Ratios {
				series := set.Get(fmt.Sprintf("p99_ms_fmem%.0f", ratio*100))
				hit := fig1HitRatio(sys, lc, ratio)
				for step := 1; step <= 44; step++ {
					frac := float64(step) / 40 // up to 110% of max load
					p99 := lc.StationaryP99(frac, hit, 0)
					if p99 > 10*cfg.SLOSeconds {
						p99 = 10 * cfg.SLOSeconds // clip divergence for plotting
					}
					series.Append(frac*cfg.MaxLoadRPS/1000, p99*1000)
				}
			}
			return set.WriteCSV(cw)
		})
		if err != nil {
			return err
		}
	}
	return nil
}
