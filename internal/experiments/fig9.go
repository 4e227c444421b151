package experiments

import (
	"fmt"
	"io"

	"github.com/tieredmem/mtat/internal/sim"
)

// fig9Loads are the constant load levels of §5.3.
var fig9Loads = []float64{0.2, 0.5, 0.8}

// fig9Policies is the §5.3 comparison set.
func fig9Policies() []string {
	return []string{"mtat-full", "mtat-lconly", "memtis", "tpp"}
}

// fig9Results runs (or returns cached) the constant-load Redis runs
// behind Figure 9 and Table 4.
func (s *Suite) fig9Results() (map[string]map[float64]*sim.Result, error) {
	if len(s.fig9) > 0 {
		return s.fig9, nil
	}
	scn, err := s.scenario("redis", 0, 0, nil)
	if err != nil {
		return nil, err
	}
	names := fig9Policies()
	pols, err := s.policies(scn, names...)
	if err != nil {
		return nil, err
	}
	for i, pol := range pols {
		byLoad := make(map[float64]*sim.Result, len(fig9Loads))
		for _, loadFrac := range fig9Loads {
			s.logf("fig9: running %s at %.0f%% load", pol.Name(), loadFrac*100)
			res, err := constantRun(scn, pol, loadFrac, 90, 20)
			if err != nil {
				return nil, err
			}
			byLoad[loadFrac] = res
		}
		s.fig9[names[i]] = byLoad
	}
	return s.fig9, nil
}

// runFig9 reproduces Figure 9: BE fairness and throughput (with FMem
// distribution) for Redis co-located with four BE workloads at 20/50/80%
// of max load. The shape to reproduce: MTAT (Full) has the highest
// fairness at every load; MEMTIS has the highest raw BE throughput
// (it never reserves FMem for Redis); at 80% load MTAT reallocates FMem
// to Redis, shrinking BE throughput but keeping violations at zero.
func runFig9(s *Suite, w io.Writer) error {
	results, err := s.fig9Results()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 9: BE fairness/throughput at 20/50/80% Redis load")
	for _, loadFrac := range fig9Loads {
		fmt.Fprintf(w, "\nMax Load %.0f%%:\n", loadFrac*100)
		fmt.Fprintf(w, "  %-16s %10s %12s %14s %s\n",
			"policy", "fairness", "BE tput", "LC FMem(avg)", "BE FMem avg pages")
		for _, name := range fig9Policies() {
			res := results[name][loadFrac]
			lcFMem := res.LCFMemRatio.Mean()
			fmt.Fprintf(w, "  %-16s %10.3f %12.4g %14.3f", res.Policy, res.BEFairness, res.BEThroughput, lcFMem)
			fmt.Fprint(w, " [")
			for i, be := range res.BEs {
				if i > 0 {
					fmt.Fprint(w, " ")
				}
				fmt.Fprintf(w, "%s:%.0f", be.Name, be.AvgFMemPages)
			}
			fmt.Fprintln(w, "]")
		}
	}
	return s.writeCSV("fig9_fairness_throughput.csv", func(cw io.Writer) error {
		fmt.Fprintln(cw, "policy,load,fairness,throughput,lc_fmem_ratio")
		for _, name := range fig9Policies() {
			for _, loadFrac := range fig9Loads {
				res := results[name][loadFrac]
				fmt.Fprintf(cw, "%s,%g,%g,%g,%g\n",
					res.Policy, loadFrac, res.BEFairness, res.BEThroughput, res.LCFMemRatio.Mean())
			}
		}
		return nil
	})
}

// runTable4 reproduces Table 4: SLO violation rates at 20/50/80% load.
// The shape to reproduce: MTAT 0/0/0; MEMTIS and TPP escalate with load,
// approaching total violation at 80%.
func runTable4(s *Suite, w io.Writer) error {
	results, err := s.fig9Results()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 4: SLO violation rates (%)")
	fmt.Fprintf(w, "%-16s %12s %12s %12s\n", "policy", "Max Load 20%", "Max Load 50%", "Max Load 80%")
	for _, name := range fig9Policies() {
		fmt.Fprintf(w, "%-16s", results[name][fig9Loads[0]].Policy)
		for _, loadFrac := range fig9Loads {
			fmt.Fprintf(w, " %12.1f", results[name][loadFrac].LCViolationRate*100)
		}
		fmt.Fprintln(w)
	}
	return s.writeCSV("table4_slo_violations.csv", func(cw io.Writer) error {
		fmt.Fprintln(cw, "policy,load20,load50,load80")
		for _, name := range fig9Policies() {
			fmt.Fprintf(cw, "%s,%g,%g,%g\n", results[name][0.2].Policy,
				results[name][0.2].LCViolationRate*100,
				results[name][0.5].LCViolationRate*100,
				results[name][0.8].LCViolationRate*100)
		}
		return nil
	})
}
