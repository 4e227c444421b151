package experiments

import (
	"fmt"
	"io"
	"slices"

	"github.com/tieredmem/mtat/internal/policy"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/stats"
	"github.com/tieredmem/mtat/internal/workload"
)

// maxLoadProbe runs a constant-load probe and reports SLO compliance.
func (s *Suite) maxLoadProbe(scn sim.Scenario, pol policy.Policy, frac float64) (bool, error) {
	res, err := constantRun(scn, pol, frac, s.cfg.ProbeSeconds, s.cfg.ProbeWarmup)
	if err != nil {
		return false, err
	}
	return res.SLOMet, nil
}

// searchMaxLoad bisects the largest load fraction the policy sustains
// without violating the SLO.
func (s *Suite) searchMaxLoad(scn sim.Scenario, pol policy.Policy) (float64, error) {
	// The search ceiling scales with serving capacity: settings that give
	// the LC workload more cores than its profile can exceed the nominal
	// max load (Table 3's 16-core rows).
	ceiling := 1.3
	if prof, ok := workload.LCConfigByName(scn.LC.Name); ok && prof.Servers > 0 {
		if ratio := float64(scn.LC.Servers) / float64(prof.Servers); ratio > 1 {
			ceiling *= ratio
		}
	}
	lo, hi := 0.0, ceiling
	// Establish a feasible floor: if even 5% load fails, report 0.
	ok, err := s.maxLoadProbe(scn, pol, 0.05)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	lo = 0.05
	for i := 0; i < s.cfg.ProbeIters; i++ {
		mid := (lo + hi) / 2
		ok, err := s.maxLoadProbe(scn, pol, mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// runFig8 reproduces Figure 8: the maximum SLO-compliant load per policy,
// normalized to FMEM_ALL, per LC workload plus the geometric mean. The
// shape to reproduce: TPP lowest (~0.70, below SMEM_ALL), MEMTIS below
// SMEM_ALL's band in our model (see EXPERIMENTS.md), and both MTAT
// variants within ~1% of FMEM_ALL.
func runFig8(s *Suite, w io.Writer) error {
	fmt.Fprintln(w, "Figure 8: max SLO-compliant load, normalized to FMEM_ALL")
	polNames := allPolicies()
	ref := slices.Index(polNames, "fmem-all")
	labels := make([]string, len(polNames))
	rows := make([][]float64, len(polNames)) // per policy: per-LC normalized
	fmt.Fprintf(w, "%-16s", "policy")
	for _, lcName := range s.cfg.LCNames {
		fmt.Fprintf(w, " %10s", lcName)
	}
	fmt.Fprintf(w, " %10s\n", "geomean")

	for _, lcName := range s.cfg.LCNames {
		scn, err := s.scenario(lcName, 0, 0, nil)
		if err != nil {
			return err
		}
		pols, err := s.policies(scn, polNames...)
		if err != nil {
			return err
		}
		maxFracs := make([]float64, len(pols))
		for i, pol := range pols {
			labels[i] = pol.Name()
			s.logf("fig8: searching max load %s / %s", lcName, pol.Name())
			if maxFracs[i], err = s.searchMaxLoad(scn, pol); err != nil {
				return err
			}
		}
		if maxFracs[ref] == 0 {
			return fmt.Errorf("experiments: fig8 %s: FMEM_ALL sustained no load", lcName)
		}
		for i, v := range maxFracs {
			rows[i] = append(rows[i], v/maxFracs[ref])
		}
	}
	for i, vals := range rows {
		fmt.Fprintf(w, "%-16s", labels[i])
		for _, v := range vals {
			fmt.Fprintf(w, " %10.3f", v)
		}
		fmt.Fprintf(w, " %10.3f\n", stats.GeoMean(vals))
	}
	return s.writeCSV("fig8_max_load.csv", func(cw io.Writer) error {
		fmt.Fprint(cw, "policy")
		for _, lcName := range s.cfg.LCNames {
			fmt.Fprintf(cw, ",%s", lcName)
		}
		fmt.Fprintln(cw)
		for i, vals := range rows {
			fmt.Fprint(cw, labels[i])
			for _, v := range vals {
				fmt.Fprintf(cw, ",%g", v)
			}
			fmt.Fprintln(cw)
		}
		return nil
	})
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
