// Command perfbench is the repository benchmark: it runs one named
// workload, checks its outputs, and prints one JSON result line with the
// end-to-end metrics (-trace 0) or the per-layer split (-trace 1).
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload mtat-cells --seed 1 --seconds 25 --trace 0
//
// Workloads: mtat-cells, baseline-sweep, service. See README.md for what
// each one exercises and how the metrics map onto the layers.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

// deadline bounds one invocation's measured work, so a hung workload
// fails with a message instead of running into the caller's kill.
const deadline = 160 * time.Second

// defaultSeed is the seed the committed figures were taken with.
const defaultSeed = 1

// outcome is what a workload hands back to main.
type outcome struct {
	values    map[string]float64
	correct   bool
	attempted int
	failed    int
}

// notef reports a problem found while checking outputs.
func notef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

var workloads = []string{"mtat-cells", "baseline-sweep", "service"}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
		seed    = flag.Int64("seed", defaultSeed, "seed for every cell and every submitted run")
		seconds = flag.Float64("seconds", 25, "measurement budget in seconds")
		trace   = flag.Int("trace", 0, "0 prints end-to-end metrics, 1 prints the per-layer split")
		mtatd   = flag.String("mtatd", "", "path to the mtatd binary (service workload)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: -seconds must be > 0, got %g\n", *seconds)
		return 2
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	if err := validateDefs(defs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	var (
		out outcome
		err error
	)
	switch *name {
	case "mtat-cells", "baseline-sweep":
		w := mtatCells(*seed)
		if *name == "baseline-sweep" {
			w = baselineSweep(*seed)
		}
		if *trace == 1 {
			out, err = traceSimWorkload(ctx, w)
		} else {
			out, err = runSimWorkload(ctx, w, *seconds)
		}
	case "service":
		out, err = runService(ctx, serviceConfig{
			mtatd:   *mtatd,
			seed:    *seed,
			seconds: *seconds,
			trace:   *trace == 1,
		})
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (valid: %s)\n",
			*name, strings.Join(workloads, ", "))
		return 2
	}
	if err != nil {
		switch {
		case errors.Is(ctx.Err(), context.DeadlineExceeded):
			fmt.Fprintf(os.Stderr, "perfbench: %s: exceeded its %v deadline: %v\n", *name, deadline, err)
		case ctx.Err() != nil:
			fmt.Fprintf(os.Stderr, "perfbench: %s: interrupted: %v\n", *name, err)
		default:
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		}
		return 1
	}
	if *trace == 1 {
		// Layers the workload does not exercise read 0.
		for _, d := range perLayer {
			if _, ok := out.values[d.Name]; !ok {
				out.values[d.Name] = 0
			} else {
				fmt.Fprintf(os.Stderr, "  %-28s %14.4f %s\n", d.Name, out.values[d.Name], d.Unit)
			}
		}
	}
	metrics, err := buildReport(defs, out.values)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(report{
		Correct:   out.correct,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: outputs failed their checks\n", *name)
		return 1
	}
	return 0
}
