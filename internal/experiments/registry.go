package experiments

import (
	"fmt"
	"io"
)

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the command-line identifier (e.g. "fig5", "table4").
	ID string
	// Title summarizes what the experiment reproduces.
	Title string
	// Run executes the experiment, writing its report to w.
	Run func(s *Suite, w io.Writer) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1: LC benchmark characteristics", runTable1},
		{"table2", "Table 2: BE benchmark characteristics", runTable2},
		{"fig1", "Figure 1: LC tail latency vs load per FMem allocation", runFig1},
		{"fig2", "Figure 2: Redis + SSSP under MEMTIS", runFig2},
		{"fig7", "Figure 7: dynamic load pattern", runFig7},
		{"fig5", "Figure 5: dynamic-load P99 and FMem allocation", runFig5},
		{"fig6", "Figure 6: BE fairness and throughput", runFig6},
		{"fig8", "Figure 8: max SLO-compliant load", runFig8},
		{"fig9", "Figure 9: BE fairness/throughput at constant loads", runFig9},
		{"table4", "Table 4: SLO violation rates", runTable4},
		{"table3", "Table 3: settings sweep", runTable3},
		{"overhead", "§5.5: PP-M CPU and PP-E bandwidth overhead", runOverhead},
		{"ablation", "Ablation: MTAT design choices disabled one at a time", runAblation},
		{"surge", "Extension: instant demand-surge response", runSurge},
		{"extended", "Extension: §6 related-work alternatives (vTMM, heuristic)", runExtended},
		{"monitoring", "Extension: per-page vs DAMON-region monitoring", runMonitoring},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment against one shared suite.
func RunAll(s *Suite, w io.Writer) error {
	for _, e := range All() {
		fmt.Fprintf(w, "==== %s: %s ====\n", e.ID, e.Title)
		if err := e.Run(s, w); err != nil {
			return fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
