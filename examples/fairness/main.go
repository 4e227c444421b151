// Fairness: compare how policies divide fast memory among best-effort
// tenants (the §5.3 / Figure 9 study).
//
// Four best-effort workloads with very different FMem sensitivities share
// the machine with a lightly loaded Redis. MEMTIS hands fast memory to
// whoever looks hottest (PageRank's concentrated accesses win; XSBench's
// uniform accesses lose everything). MTAT (Full)'s simulated-annealing
// search instead maximizes the minimum normalized performance, which
// shifts capacity toward XSBench and raises the fairness floor.
//
// Run with: go run ./examples/fairness [-episodes N]
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/tieredmem/mtat"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fairness:", err)
		os.Exit(1)
	}
}

func run() error {
	episodes := flag.Int("episodes", 60, "pre-training episodes")
	flag.Parse()

	// Constant 20% load: Redis needs almost no fast memory, so the BE
	// partitioning policy is what differentiates the outcomes.
	load, err := mtat.ConstantLoad(0.2, 90)
	if err != nil {
		return err
	}
	scn, err := mtat.NewScenario(mtat.ScenarioOpts{
		LC:    "redis",
		BEs:   []string{"sssp", "bfs", "pr", "xsbench"},
		Scale: 16,
		Seed:  4,
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
	fmt.Printf("training MTAT (Full) for %d episodes...\n\n", *episodes)
	trainScn := scn
	trainScn.TickSeconds = mtat.TrainTickSeconds
	if err := mtat.Pretrain(m, trainScn, *episodes); err != nil {
		return err
	}
	m.ResetEpisode()

	// Switch to the constant-load measurement run, starting Redis from
	// slow memory so each policy earns its steady state.
	scn.Load = load
	scn.DurationSeconds = load.Duration()
	scn.WarmupSeconds = 20
	scn.LCInitialTier = mtat.TierSMem

	fmt.Printf("%-12s %10s %12s   %s\n", "policy", "fairness", "BE tput", "per-BE normalized performance")
	for _, pol := range []mtat.Policy{mtat.NewMEMTIS(), m} {
		res, err := mtat.Run(scn, pol)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %10.3f %12.3g   ", res.Policy, res.BEFairness, res.BEThroughput)
		for i, be := range res.BEs {
			if i > 0 {
				fmt.Print("  ")
			}
			fmt.Printf("%s %.2f", be.Name, be.NP)
		}
		fmt.Println()
	}
	fmt.Println("\nThe fairness column is the smallest normalized performance across the")
	fmt.Println("best-effort tenants (Eq. 3 of the paper) — MTAT raises the floor by")
	fmt.Println("reallocating fast memory from skew-friendly tenants to uniform ones.")
	return nil
}
