package experiments

import (
	"fmt"
	"io"

	"github.com/tieredmem/mtat/internal/core"
	"github.com/tieredmem/mtat/internal/loadgen"
	"github.com/tieredmem/mtat/internal/sim"
)

// table3Row is one measured configuration of Table 3.
type table3Row struct {
	setting Table3Setting
	variant string
	// maxLoad is the LC max load normalized to FMEM_ALL in this setting.
	maxLoad float64
	// fairness and tput are BE metrics at 20/50/80% of the setting's max
	// load, normalized to MEMTIS at the same level.
	fairness [3]float64
	tput     [3]float64
}

// runTable3 reproduces Table 3: the (LC cores, BE cores, #BE) sweep with
// Memcached as the LC workload. For each setting it reports the LC max
// load normalized to FMEM_ALL and BE fairness/throughput normalized to
// MEMTIS at 20/50/80% of the setting's max. The shape to reproduce: LC
// max load stays ~0.98-0.99 everywhere; BE fairness gains grow with load
// (up to ~1.8x at 80%); BE throughput falls to ~0.5-0.75 at 80%.
func runTable3(s *Suite, w io.Writer) error {
	fmt.Fprintln(w, "Table 3: MTAT across settings (x=LC cores, y=BE cores, z=#BE); LC=memcached")
	fmt.Fprintf(w, "%-12s %-16s %8s | %8s %8s | %8s %8s | %8s %8s\n",
		"setting", "config", "LC max", "fair20", "tput20", "fair50", "tput50", "fair80", "tput80")

	beSets := map[int][]string{
		2: {"sssp", "pr"},
		4: {"sssp", "bfs", "pr", "xsbench"},
	}
	var rows []table3Row
	for _, setting := range s.cfg.Table3Settings {
		beNames, ok := beSets[setting.NumBE]
		if !ok {
			return fmt.Errorf("experiments: table3 has no BE set for z=%d", setting.NumBE)
		}
		scn, err := s.scenario("memcached", setting.LCCores, setting.BECores, beNames)
		if err != nil {
			return err
		}
		// Reference max loads.
		fmemAll, err := s.policies(scn, "fmem-all")
		if err != nil {
			return err
		}
		s.logf("table3 %v: searching FMEM_ALL max load", setting)
		refMax, err := s.searchMaxLoad(scn, fmemAll[0])
		if err != nil {
			return err
		}
		if refMax == 0 {
			return fmt.Errorf("experiments: table3 %v: FMEM_ALL sustained no load", setting)
		}

		// Train on the setting's effective capacity: the Figure 7 shape
		// rescaled so "100%" matches what FMEM_ALL sustains here.
		trainScn := scn
		trainScn.Load = &loadgen.Scaled{Pattern: loadgen.Fig7(), Factor: refMax}
		cfg, err := sim.MTATConfigFor(scn)
		if err != nil {
			return err
		}
		for _, variant := range []core.Variant{core.VariantFull, core.VariantLCOnly} {
			m, err := s.train(variant, cfg, trainScn, fmt.Sprintf("%s for table3 %v", variant, setting))
			if err != nil {
				return err
			}
			s.logf("table3 %v: searching %s max load", setting, variant)
			maxFrac, err := s.searchMaxLoad(scn, m)
			if err != nil {
				return err
			}
			row := table3Row{setting: setting, variant: m.Name(), maxLoad: maxFrac / refMax}

			for i, level := range fig9Loads {
				frac := clamp01(level * refMax)
				mtRes, err := constantRun(scn, m, frac, 70, 20)
				if err != nil {
					return err
				}
				// A fresh MEMTIS per run: its aging clock survives Init.
				memtis, err := s.policies(scn, "memtis")
				if err != nil {
					return err
				}
				memtisRes, err := constantRun(scn, memtis[0], frac, 70, 20)
				if err != nil {
					return err
				}
				row.fairness[i] = safeRatio(mtRes.BEFairness, memtisRes.BEFairness)
				row.tput[i] = safeRatio(mtRes.BEThroughput, memtisRes.BEThroughput)
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-12s %-16s %8.2f | %8.2f %8.2f | %8.2f %8.2f | %8.2f %8.2f\n",
				fmt.Sprintf("(%d,%d,%d)", setting.LCCores, setting.BECores, setting.NumBE),
				row.variant, row.maxLoad,
				row.fairness[0], row.tput[0],
				row.fairness[1], row.tput[1],
				row.fairness[2], row.tput[2])
		}
	}
	return s.writeCSV("table3_settings.csv", func(cw io.Writer) error {
		fmt.Fprintln(cw, "x,y,z,variant,lc_max,fair20,tput20,fair50,tput50,fair80,tput80")
		for _, r := range rows {
			fmt.Fprintf(cw, "%d,%d,%d,%s,%g,%g,%g,%g,%g,%g,%g\n",
				r.setting.LCCores, r.setting.BECores, r.setting.NumBE, r.variant, r.maxLoad,
				r.fairness[0], r.tput[0], r.fairness[1], r.tput[1], r.fairness[2], r.tput[2])
		}
		return nil
	})
}
