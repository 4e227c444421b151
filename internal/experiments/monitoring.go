package experiments

import (
	"fmt"
	"io"

	"github.com/tieredmem/mtat/internal/policy"
	"github.com/tieredmem/mtat/internal/sim"
)

// runMonitoring is an extension experiment on the related-work axis the
// paper cites (Telescope/DAMON, §6): how much placement fidelity does
// region-based monitoring give up against per-page counters, and how much
// bookkeeping does it save? Both MEMTIS variants run the Figure 5 Redis
// scenario; fidelity shows up as BE throughput/fairness (the LC workload
// is starved by both — monitoring granularity does not fix a
// frequency-only policy), bookkeeping as counters maintained.
func runMonitoring(s *Suite, w io.Writer) error {
	scn, err := s.scenario("redis", 0, 0, nil)
	if err != nil {
		return err
	}
	pols, err := s.policies(scn, "memtis", "memtis-region")
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Monitoring (extension): per-page vs region-based MEMTIS, Figure 5 scenario")
	fmt.Fprintf(w, "%-18s %10s %12s %12s %14s\n",
		"variant", "viol rate", "BE fairness", "BE tput", "counters")

	type row struct {
		name                 string
		viol, fairness, tput float64
		counters             int
	}
	var rows []row
	for _, pol := range pols {
		s.logf("monitoring: running %s", pol.Name())
		runner, err := sim.NewRunner(scn, pol)
		if err != nil {
			return err
		}
		res, err := runner.Run()
		if err != nil {
			return err
		}
		counters := runner.System().NumPages() // per-page counters
		if rm, ok := pol.(*policy.RegionMEMTIS); ok {
			counters = rm.TotalRegions()
		}
		rows = append(rows, row{pol.Name(), res.LCViolationRate,
			res.BEFairness, res.BEThroughput, counters})
		fmt.Fprintf(w, "%-18s %9.1f%% %12.3f %12.4g %14d\n",
			pol.Name(), res.LCViolationRate*100, res.BEFairness,
			res.BEThroughput, counters)
	}
	if len(rows) == 2 && rows[1].counters > 0 {
		fmt.Fprintf(w, "bookkeeping reduction: %.0fx fewer counters\n",
			float64(rows[0].counters)/float64(rows[1].counters))
	}
	return s.writeCSV("monitoring.csv", func(cw io.Writer) error {
		fmt.Fprintln(cw, "variant,violation_rate,be_fairness,be_throughput,counters")
		for _, r := range rows {
			fmt.Fprintf(cw, "%s,%g,%g,%g,%d\n", r.name, r.viol, r.fairness, r.tput, r.counters)
		}
		return nil
	})
}
