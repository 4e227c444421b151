// Dynamicload: train MTAT and watch it track a load ramp (Figure 5).
//
// The example pre-trains MTAT (Full)'s Soft Actor-Critic agent on the
// Figure 7 ramp, then replays the ramp in evaluation mode and prints the
// allocation timeline: a small LC partition during the low-load phases,
// growth ahead of and through the peak, gradual release afterwards — with
// the SLO satisfied throughout, which is exactly the behavior Figure 5
// reports. Training ~60 episodes takes a couple of minutes on one core.
//
// Run with: go run ./examples/dynamicload [-episodes N]
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/tieredmem/mtat"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dynamicload:", err)
		os.Exit(1)
	}
}

func run() error {
	episodes := flag.Int("episodes", 60, "pre-training episodes")
	flag.Parse()

	scn, err := mtat.NewScenario(mtat.ScenarioOpts{
		LC:    "redis",
		BEs:   []string{"sssp", "bfs", "pr", "xsbench"},
		Scale: 16,
		Seed:  3,
	})
	if err != nil {
		return err
	}
	cfg, err := mtat.MTATConfigFor(scn)
	if err != nil {
		return err
	}
	m, err := mtat.NewMTAT(mtat.VariantFull, cfg)
	if err != nil {
		return err
	}

	fmt.Printf("training MTAT (Full) for %d episodes...\n", *episodes)
	trainScn := scn
	trainScn.TickSeconds = mtat.TrainTickSeconds
	if err := mtat.Pretrain(m, trainScn, *episodes); err != nil {
		return err
	}

	m.ResetEpisode()
	res, err := mtat.Run(scn, m)
	if err != nil {
		return err
	}

	fmt.Println("\nMTAT (Full) under the Figure 7 ramp:")
	fmt.Printf("%-8s %6s %12s %12s\n", "time(s)", "load", "P99 (ms)", "LC FMem")
	for t := 0.0; t < res.Scenario.DurationSeconds; t += 20 {
		fmt.Printf("%-8.0f %5.0f%% %12.2f %12.3f\n",
			t, 100*res.LCLoadKRPS.At(t)/(scn.LC.MaxLoadRPS/1000),
			res.LCP99.At(t)*1000, res.LCFMemRatio.At(t))
	}
	fmt.Printf("\nsettled-period SLO violation rate: %.2f%% (SLO met: %v)\n",
		res.LCViolationRate*100, res.SLOMet)
	fmt.Printf("BE fairness (min normalized perf): %.3f\n", res.BEFairness)
	return nil
}
