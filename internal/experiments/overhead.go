package experiments

import (
	"fmt"
	"io"

	"github.com/tieredmem/mtat/internal/core"
	"github.com/tieredmem/mtat/internal/sim"
)

// runOverhead reproduces §5.5: the framework's own cost while managing the
// §5.1 Redis co-location. PP-M overhead is the wall-clock compute spent on
// partition decisions (RL inference/training + annealing) relative to the
// simulated duration — the share of one core a real deployment would burn.
// PP-E overhead is the migration bandwidth consumed by partition
// replacement. The paper reports <7% of one core and ~4 GB/s on average.
func runOverhead(s *Suite, w io.Writer) error {
	scn, err := s.scenario("redis", 0, 0, nil)
	if err != nil {
		return err
	}
	pols, err := s.policies(scn, "mtat-full")
	if err != nil {
		return err
	}
	m := pols[0].(*core.MTAT)
	cfg, err := sim.MTATConfigFor(scn)
	if err != nil {
		return err
	}
	resetPolicy(m)
	decisionsBefore := m.PPM().Decisions()
	computeBefore := m.PPM().ComputeTime()
	res, err := sim.RunScenario(scn, m)
	if err != nil {
		return err
	}
	decisions := m.PPM().Decisions() - decisionsBefore
	compute := m.PPM().ComputeTime() - computeBefore

	cpuShare := compute.Seconds() / scn.Load.Duration()
	// Scale migration traffic back to paper geometry for comparability.
	bwGBs := float64(res.MigratedBytes) * float64(s.cfg.Scale) / scn.Load.Duration() / 1e9

	fmt.Fprintln(w, "Overhead (§5.5): MTAT (Full) managing Redis + 4 BE workloads")
	fmt.Fprintf(w, "PP-M decisions:            %d (every %.1f s)\n", decisions, cfg.IntervalSeconds)
	fmt.Fprintf(w, "PP-M compute total:        %v\n", compute)
	fmt.Fprintf(w, "PP-M CPU share of 1 core:  %.2f%% (paper: < 7%%)\n", cpuShare*100)
	fmt.Fprintf(w, "PP-E migration traffic:    %.2f GB/s avg (paper: ~4 GB/s)\n", bwGBs)
	fmt.Fprintf(w, "PP-E pages migrated:       %d MiB total\n", res.MigratedBytes>>20)
	return nil
}
