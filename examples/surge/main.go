// Surge: stress MTAT with periodic instant demand spikes.
//
// The paper's abstract highlights "rapid response to sudden demand
// surges". This example drives Memcached with a burst pattern — 25% base
// load punctuated by instant jumps to 95% — and compares MTAT (Full)
// against MEMTIS. MTAT's trained agent pre-positions enough fast memory
// to absorb the spikes; MEMTIS never re-admits the latency-critical
// tenant's pages and melts on every burst.
//
// Run with: go run ./examples/surge [-episodes N]
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/tieredmem/mtat"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "surge:", err)
		os.Exit(1)
	}
}

func run() error {
	episodes := flag.Int("episodes", 60, "pre-training episodes")
	flag.Parse()

	// 25% base with 20 s bursts to 95% every 60 s, for 4 minutes.
	load, err := mtat.BurstLoad(0.25, 0.95, 60, 20, 240)
	if err != nil {
		return err
	}
	scn, err := mtat.NewScenario(mtat.ScenarioOpts{
		LC:    "memcached",
		BEs:   []string{"sssp", "bfs", "pr", "xsbench"},
		Load:  load,
		Scale: 16,
		Seed:  6,
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
	fmt.Printf("training MTAT (Full) on the burst pattern for %d episodes...\n\n", *episodes)
	trainScn := scn
	trainScn.TickSeconds = mtat.TrainTickSeconds
	if err := mtat.Pretrain(m, trainScn, *episodes); err != nil {
		return err
	}
	m.ResetEpisode()

	fmt.Printf("%-12s %12s %14s %12s\n", "policy", "viol rate", "peak P99 (ms)", "BE fairness")
	for _, pol := range []mtat.Policy{mtat.NewMEMTIS(), m} {
		res, err := mtat.Run(scn, pol)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %11.1f%% %14.2f %12.3f\n",
			res.Policy, res.LCViolationRate*100, res.LCMaxP99*1000, res.BEFairness)
	}
	fmt.Println("\nMTAT absorbs each spike by keeping (or rapidly regrowing) the LC")
	fmt.Println("partition the spikes require; between spikes the best-effort tenants")
	fmt.Println("get the memory back.")
	return nil
}
