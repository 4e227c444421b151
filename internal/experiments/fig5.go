package experiments

import (
	"fmt"
	"io"

	"github.com/tieredmem/mtat/internal/loadgen"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/stats"
)

// fig5Results runs (or returns cached) dynamic-load runs for one LC
// workload under every comparison policy, keyed by policy name: the §5.1
// setup of one LC plus the suite's BE set under the Figure 7 ramp.
func (s *Suite) fig5Results(lcName string) (map[string]*sim.Result, error) {
	if cached, ok := s.fig5[lcName]; ok {
		return cached, nil
	}
	scn, err := s.scenario(lcName, 0, 0, nil)
	if err != nil {
		return nil, err
	}
	names := allPolicies()
	pols, err := s.policies(scn, names...)
	if err != nil {
		return nil, err
	}
	results := make(map[string]*sim.Result, len(pols))
	for i, pol := range pols {
		resetPolicy(pol)
		s.logf("fig5: running %s / %s", lcName, pol.Name())
		res, err := sim.RunScenario(scn, pol)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig5 %s/%s: %w", lcName, pol.Name(), err)
		}
		results[names[i]] = res
	}
	s.fig5[lcName] = results
	return results, nil
}

// runFig5 reproduces Figure 5: P99 latency over time and FMem allocation
// per policy under the dynamic Figure 7 load, for each LC workload. The
// shape to reproduce: TPP and MEMTIS (like SMEM_ALL) violate the SLO
// during high load, while both MTAT variants satisfy it by adaptively
// sizing the LC partition.
func runFig5(s *Suite, w io.Writer) error {
	fmt.Fprintln(w, "Figure 5: dynamic-load P99 and FMem allocation per policy")
	for _, lcName := range s.cfg.LCNames {
		results, err := s.fig5Results(lcName)
		if err != nil {
			return err
		}
		scn := results[allPolicies()[0]].Scenario
		fmt.Fprintf(w, "\n%s (SLO %.0f ms, settled-period accounting):\n",
			lcName, scn.LC.SLOSeconds*1000)
		fmt.Fprintf(w, "  %-16s %10s %12s %12s %10s\n",
			"policy", "viol rate", "max P99(ms)", "peak FMem", "SLO met")
		for _, name := range allPolicies() {
			res := results[name]
			fmt.Fprintf(w, "  %-16s %9.1f%% %12.1f %12.3f %10v\n",
				res.Policy, res.LCViolationRate*100, res.LCMaxP99*1000,
				res.LCFMemRatio.At(120), res.SLOMet)
		}

		lc := lcName
		err = s.writeCSV(fmt.Sprintf("fig5_%s.csv", lc), func(cw io.Writer) error {
			set := stats.NewSeriesSet()
			first := results[allPolicies()[0]]
			loadSeries := set.Get("load_krps")
			for i, t := range first.Time.Times {
				loadSeries.Append(t, first.LCLoadKRPS.Values[i])
			}
			for _, name := range allPolicies() {
				res := results[name]
				p99 := set.Get("p99_ms_" + res.Policy)
				ratio := set.Get("fmem_" + res.Policy)
				for i, t := range res.Time.Times {
					p99.Append(t, res.LCP99.Values[i]*1000)
					ratio.Append(t, res.LCFMemRatio.Values[i])
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

// runFig6 reproduces Figure 6: BE fairness (min NP) and total BE
// throughput per policy, aggregated over the co-locations of Figure 5.
// The shape to reproduce: MTAT (Full) improves fairness ~3x over TPP and
// ~1.4x over MEMTIS, at the cost of <=19% throughput versus MEMTIS;
// MTAT (LC Only) narrows the throughput gap to a few percent.
func runFig6(s *Suite, w io.Writer) error {
	fmt.Fprintln(w, "Figure 6: BE fairness and throughput per policy (mean over LC co-locations)")
	type agg struct {
		label    string
		fairness []float64
		tput     []float64
	}
	byPolicy := make(map[string]*agg)
	comparison := []string{"tpp", "memtis", "mtat-lconly", "mtat-full"}
	for _, lcName := range s.cfg.LCNames {
		results, err := s.fig5Results(lcName)
		if err != nil {
			return err
		}
		for _, name := range comparison {
			a := byPolicy[name]
			if a == nil {
				a = &agg{label: results[name].Policy}
				byPolicy[name] = a
			}
			a.fairness = append(a.fairness, results[name].BEFairness)
			a.tput = append(a.tput, results[name].BEThroughput)
		}
	}
	memtisFair := stats.Mean(byPolicy["memtis"].fairness)
	memtisTput := stats.Mean(byPolicy["memtis"].tput)
	fmt.Fprintf(w, "%-16s %10s %12s %12s %12s\n",
		"policy", "fairness", "vs MEMTIS", "throughput", "vs MEMTIS")
	for _, name := range comparison {
		a := byPolicy[name]
		f := stats.Mean(a.fairness)
		tp := stats.Mean(a.tput)
		fmt.Fprintf(w, "%-16s %10.3f %12.2fx %12.3g %12.2fx\n",
			a.label, f, safeRatio(f, memtisFair), tp, safeRatio(tp, memtisTput))
	}
	return s.writeCSV("fig6_be_fairness_throughput.csv", func(cw io.Writer) error {
		fmt.Fprintln(cw, "policy,fairness,throughput")
		for _, name := range comparison {
			a := byPolicy[name]
			fmt.Fprintf(cw, "%s,%g,%g\n", a.label, stats.Mean(a.fairness), stats.Mean(a.tput))
		}
		return nil
	})
}

// runFig7 prints the dynamic load pattern definition.
func runFig7(_ *Suite, w io.Writer) error {
	fmt.Fprintln(w, "Figure 7: dynamic load pattern (fraction of Max Load)")
	p := loadgen.Fig7()
	fmt.Fprintf(w, "%-8s %s\n", "time(s)", "fraction")
	for t := 0.0; t < p.Duration(); t += 20 {
		fmt.Fprintf(w, "%-8.0f %.1f\n", t, p.Frac(t))
	}
	return nil
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
