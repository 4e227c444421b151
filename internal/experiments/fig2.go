package experiments

import (
	"fmt"
	"io"

	"github.com/tieredmem/mtat/internal/loadgen"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/stats"
)

// runFig2 reproduces Figure 2: Redis co-located with SSSP under MEMTIS.
// Redis starts owning 100% of FMem, then receives load steps equal to the
// max throughputs at FMem 0/25/50/75/100% (per Figure 1). The paper's
// observations to reproduce: MEMTIS promptly fills FMem with the SSSP
// dataset (Redis residency drops below ~10%), and P99 explodes once the
// load passes the FMem-25% capacity even though 25% of FMem would have
// sufficed.
func runFig2(s *Suite, w io.Writer) error {
	_, _, maxLoads, err := fig1LC(s, "redis")
	if err != nil {
		return err
	}
	// One step per Figure 1 allocation level, 40 s each.
	const stepLen = 40.0
	steps := make([]float64, len(maxLoads))
	for i, f := range maxLoads {
		if f > 1 {
			f = 1
		}
		steps[i] = f
	}
	load, err := loadgen.NewSteps(steps, stepLen)
	if err != nil {
		return err
	}

	scn, err := s.scenario("redis", 0, 16, []string{"sssp"})
	if err != nil {
		return err
	}
	scn.Load = load
	memtis, err := s.policies(scn, "memtis")
	if err != nil {
		return err
	}
	res, err := sim.RunScenario(scn, memtis[0])
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Figure 2: Redis + SSSP under MEMTIS (staged load)")
	fmt.Fprintf(w, "%-22s %10s %12s %12s %9s\n",
		"step (load source)", "KRPS", "P99 end(ms)", "FMem ratio", "SLO ok")
	labels := []string{"FMem 0%", "FMem 25%", "FMem 50%", "FMem 75%", "FMem 100%"}
	slo := scn.LC.SLOSeconds
	for i := range steps {
		tEnd := float64(i)*stepLen + stepLen - 1
		p99 := res.LCP99.At(tEnd)
		ratio := res.LCFMemRatio.At(tEnd)
		fmt.Fprintf(w, "%-22s %10.1f %12.2f %12.3f %9v\n",
			labels[i], steps[i]*scn.LC.MaxLoadRPS/1000, p99*1000, ratio, p99 <= slo)
	}
	fmt.Fprintf(w, "Redis FMem residency at t=30s: %.3f (paper: below 0.10)\n",
		res.LCFMemRatio.At(30))

	return s.writeCSV("fig2_redis_sssp_memtis.csv", func(cw io.Writer) error {
		set := stats.NewSeriesSet()
		load := set.Get("load_krps")
		p99 := set.Get("p99_ms")
		ratio := set.Get("fmem_ratio")
		for i, t := range res.Time.Times {
			load.Append(t, res.LCLoadKRPS.Values[i])
			p99.Append(t, res.LCP99.Values[i]*1000)
			ratio.Append(t, res.LCFMemRatio.Values[i])
		}
		return set.WriteCSV(cw)
	})
}
