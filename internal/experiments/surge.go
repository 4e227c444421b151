package experiments

import (
	"fmt"
	"io"

	"github.com/tieredmem/mtat/internal/core"
	"github.com/tieredmem/mtat/internal/loadgen"
	"github.com/tieredmem/mtat/internal/sim"
)

// runSurge is an extension experiment probing the abstract's "rapid
// response to sudden demand surges" claim: the LC load jumps instantly
// from 20% to 100% of max (no ramp), and we measure how long each policy
// takes to restore SLO compliance and how many requests miss the SLO in
// the meantime. MTAT's bound is the migration bandwidth plus one decision
// interval; frequency-driven baselines never recover because the LC pages
// still look cold at peak load.
func runSurge(s *Suite, w io.Writer) error {
	// 60 s at 20%, instant jump to 100%, 120 s to recover, back to 20%.
	load, err := loadgen.NewSteps([]float64{0.2, 0.2, 0.2, 1, 1, 1, 1, 1, 1, 0.2, 0.2, 0.2}, 20)
	if err != nil {
		return err
	}
	scn, err := s.scenario("redis", 0, 0, nil)
	if err != nil {
		return err
	}
	scn.Load = load
	scn.SettleSeconds = -1 // count every request: the transient is the point

	pols, err := s.policies(scn, "fmem-all", "memtis", "heuristic")
	if err != nil {
		return err
	}
	// MTAT trains on the surge pattern itself.
	cfg, err := sim.MTATConfigFor(scn)
	if err != nil {
		return err
	}
	m, err := s.train(core.VariantFull, cfg, scn, "MTAT (Full) for surge/redis")
	if err != nil {
		return err
	}
	pols = append(pols, m)

	fmt.Fprintln(w, "Surge (extension): instant 20%->100% load jump at t=60s, Redis + 4 BEs")
	fmt.Fprintf(w, "%-14s %12s %14s %14s\n",
		"policy", "viol rate", "recovery (s)", "peak P99 (ms)")

	type row struct {
		name               string
		viol, rec, peakP99 float64
	}
	var rows []row
	for _, pol := range pols {
		name := pol.Name()
		resetPolicy(pol)
		s.logf("surge: running %s", name)
		res, err := sim.RunScenario(scn, pol)
		if err != nil {
			return err
		}
		// Recovery time: first instant at/after the jump where P99 stays
		// within the SLO for 5 consecutive seconds.
		const jump = 60.0
		recovery := -1.0
		slo := scn.LC.SLOSeconds
		okSince := -1.0
		for i, tt := range res.LCP99.Times {
			if tt < jump {
				continue
			}
			if tt >= 180 {
				break
			}
			if res.LCP99.Values[i] <= slo {
				if okSince < 0 {
					okSince = tt
				}
				if tt-okSince >= 5 {
					recovery = okSince - jump
					break
				}
			} else {
				okSince = -1
			}
		}
		peak := 0.0
		for i, tt := range res.LCP99.Times {
			if tt >= jump && tt < 180 && res.LCP99.Values[i] > peak {
				peak = res.LCP99.Values[i]
			}
		}
		rows = append(rows, row{name, res.LCViolationRate, recovery, peak})
		recStr := "never"
		if recovery >= 0 {
			recStr = fmt.Sprintf("%.1f", recovery)
		}
		fmt.Fprintf(w, "%-14s %11.1f%% %14s %14.1f\n",
			name, res.LCViolationRate*100, recStr, peak*1000)
	}
	return s.writeCSV("surge.csv", func(cw io.Writer) error {
		fmt.Fprintln(cw, "policy,violation_rate,recovery_s,peak_p99_ms")
		for _, r := range rows {
			fmt.Fprintf(cw, "%s,%g,%g,%g\n", r.name, r.viol, r.rec, r.peakP99*1000)
		}
		return nil
	})
}

// runExtended is an extension experiment comparing the paper's policy set
// against the related-work alternatives of §6 on the Figure 5 scenario:
// vTMM (hot-set-proportional partitioning) and a PARTIES-style heuristic
// latency-feedback controller.
func runExtended(s *Suite, w io.Writer) error {
	scn, err := s.scenario("redis", 0, 0, nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Extended comparison (extension): §6 alternatives on the Figure 5 scenario")
	fmt.Fprintf(w, "%-14s %10s %12s %12s %12s\n",
		"policy", "viol rate", "max P99(ms)", "BE fairness", "BE tput")

	pols, err := s.policies(scn, "memtis", "vtmm", "heuristic", "mtat-full")
	if err != nil {
		return err
	}

	type row struct {
		name                         string
		viol, maxP99, fairness, tput float64
	}
	var rows []row
	for _, pol := range pols {
		resetPolicy(pol)
		s.logf("extended: running %s", pol.Name())
		res, err := sim.RunScenario(scn, pol)
		if err != nil {
			return err
		}
		rows = append(rows, row{pol.Name(), res.LCViolationRate, res.LCMaxP99,
			res.BEFairness, res.BEThroughput})
		fmt.Fprintf(w, "%-14s %9.1f%% %12.1f %12.3f %12.4g\n",
			pol.Name(), res.LCViolationRate*100, res.LCMaxP99*1000,
			res.BEFairness, res.BEThroughput)
	}
	return s.writeCSV("extended.csv", func(cw io.Writer) error {
		fmt.Fprintln(cw, "policy,violation_rate,max_p99_ms,be_fairness,be_throughput")
		for _, r := range rows {
			fmt.Fprintf(cw, "%s,%g,%g,%g,%g\n",
				r.name, r.viol, r.maxP99*1000, r.fairness, r.tput)
		}
		return nil
	})
}
