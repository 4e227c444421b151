package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// reportName is the file -out writes; the copy committed at the repo root
// is the baseline CI gates against.
const reportName = "BENCH_core.json"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "corebench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		outDir   = flag.String("out", "", "directory to write "+reportName+" into ('' disables)")
		baseline = flag.String("baseline", "", reportName+" baseline to gate against (fails on >2x ns/op or allocs/op regressions)")
	)
	flag.Parse()

	rep := Measure()
	rep.Go = runtime.Version()
	rep.Generated = time.Now().UTC().Format(time.RFC3339)

	fmt.Println("Core: simulator hot-path micro-benchmarks (fixed geometry)")
	fmt.Printf("%-16s %12s %14s %12s %12s\n", "BENCH", "ITERS", "NS/OP", "ALLOCS/OP", "B/OP")
	for _, r := range rep.Results {
		fmt.Printf("%-16s %12d %14.1f %12d %12d\n",
			r.Name, r.Iterations, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	}

	if *outDir != "" {
		path, err := writeReport(rep, *outDir)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	if *baseline != "" {
		return gate(os.Stdout, *baseline, rep)
	}
	return nil
}

// writeReport writes rep as dir/BENCH_core.json and returns the path.
func writeReport(rep Report, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create out dir: %w", err)
	}
	path := filepath.Join(dir, reportName)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := rep.WriteJSON(f); err != nil {
		_ = f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}

// gate compares current against the baseline report at baselinePath — the
// CI perf gate. It returns an error naming every regression; on a pass it
// reports the gated benchmark count to w.
func gate(w io.Writer, baselinePath string, current Report) error {
	baseline, err := ReadReport(baselinePath)
	if err != nil {
		return fmt.Errorf("-baseline: %w", err)
	}
	regs := Compare(baseline, current)
	if len(regs) == 0 {
		fmt.Fprintf(w, "perf gate: %d benchmarks within %.0fx of %s\n",
			len(baseline.Results), Factor, baselinePath)
		return nil
	}
	lines := make([]string, len(regs))
	for i, r := range regs {
		lines[i] = "  REGRESSION " + r.String()
	}
	return fmt.Errorf("perf gate: %d hot-path regression(s) vs %s:\n%s",
		len(regs), baselinePath, strings.Join(lines, "\n"))
}
