// Command mtatbench regenerates the paper's tables and figures.
//
// Usage:
//
//	mtatbench [-exp id[,id...]] [-scale N] [-episodes N] [-out dir] [-quick] [-v]
//
// Without -exp, every experiment runs in paper order. -quick selects the
// reduced configuration (1/16-scale memory, Redis only, shallower
// searches) used by the benchmark suite.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/tieredmem/mtat/internal/experiments"
)

// benchReport is the machine-readable result document written by -json.
type benchReport struct {
	Generated string             `json:"generated"`
	Go        string             `json:"go"`
	Config    experiments.Config `json:"config"`
	Results   []experimentResult `json:"results"`
}

// experimentResult captures one experiment's run: its identity, wall-clock
// cost, and the full text report it printed.
type experimentResult struct {
	ID      string  `json:"id"`
	Title   string  `json:"title"`
	Seconds float64 `json:"seconds"`
	Output  string  `json:"output"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mtatbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		expIDs   = flag.String("exp", "", "comma-separated experiment IDs (default: all)")
		scale    = flag.Int("scale", 0, "memory scale divisor (default per mode)")
		episodes = flag.Int("episodes", 0, "MTAT pre-training episodes (default per mode)")
		outDir   = flag.String("out", "results", "directory for CSV artifacts ('' disables)")
		quick    = flag.Bool("quick", false, "use the reduced quick configuration")
		verbose  = flag.Bool("v", false, "log progress (training, probing)")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		jsonPath = flag.String("json", "", "write machine-readable results (per-experiment output + timing) to this JSON file")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return nil
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *episodes > 0 {
		cfg.Episodes = *episodes
	}
	cfg.OutDir = *outDir

	suite, err := experiments.NewSuite(cfg)
	if err != nil {
		return err
	}
	if *verbose {
		suite.SetLogWriter(os.Stderr)
	}

	var selected []experiments.Experiment
	if *expIDs == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*expIDs, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}

	report := benchReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Go:        runtime.Version(),
		Config:    cfg,
	}
	for _, e := range selected {
		fmt.Printf("==== %s: %s ====\n", e.ID, e.Title)
		var buf bytes.Buffer
		var w io.Writer = os.Stdout
		if *jsonPath != "" {
			w = io.MultiWriter(os.Stdout, &buf)
		}
		start := time.Now()
		if err := e.Run(suite, w); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		report.Results = append(report.Results, experimentResult{
			ID:      e.ID,
			Title:   e.Title,
			Seconds: time.Since(start).Seconds(),
			Output:  buf.String(),
		})
		fmt.Println()
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	return nil
}
