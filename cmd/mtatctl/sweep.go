package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/tieredmem/mtat/internal/cluster"
	"github.com/tieredmem/mtat/internal/daemonkit"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// cmdSweep dispatches the mtatfleet subcommand family.
func cmdSweep(ctx context.Context, c *cluster.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("sweep: missing subcommand (submit|run|status|info|wait|results|nodes|cancel)")
	}
	switch args[0] {
	case "submit":
		return cmdSweepSubmit(ctx, c, args[1:])
	case "run":
		return cmdSweepRun(ctx, args[1:])
	case "status":
		return cmdSweepStatus(ctx, c, args[1:])
	case "info":
		return cmdSweepInfo(ctx, c)
	case "wait":
		return cmdSweepWait(ctx, c, args[1:])
	case "results":
		return cmdSweepResults(ctx, c, args[1:])
	case "nodes":
		return cmdSweepNodes(ctx, c, args[1:])
	case "cancel":
		return cmdSweepCancel(ctx, c, args[1:])
	default:
		return fmt.Errorf("sweep: unknown subcommand %q (submit|run|status|info|wait|results|nodes|cancel)", args[0])
	}
}

// cmdSweepRun expands a sweep spec and executes every cell locally,
// in-process, on a bounded worker pool — no fleet or daemon required.
// Cells are deterministic per seed, so -workers only changes wall-clock
// time, never results.
func cmdSweepRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("mtatctl sweep run", flag.ContinueOnError)
	var (
		specPath = fs.String("f", "", `sweep spec JSON file ("-" for stdin; required)`)
		workers  = fs.Int("workers", 0, "parallel cells (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("sweep run: -f spec file required")
	}
	data, err := readSpecFile(*specPath)
	if err != nil {
		return err
	}
	spec, err := sim.ParseSweepSpec(data)
	if err != nil {
		return err
	}
	cells, err := spec.Cells()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "running %d cells with %d workers\n", len(cells), *workers)
	start := time.Now()
	results := sim.RunCells(ctx, cells, *workers, false)
	fmt.Fprintf(os.Stderr, "finished in %s\n", time.Since(start).Round(time.Millisecond))
	type row struct {
		Index         int     `json:"index"`
		Label         string  `json:"label"`
		Policy        string  `json:"policy,omitempty"`
		ViolationRate float64 `json:"violation_rate"`
		MeanP99       float64 `json:"mean_p99_s"`
		SLOMet        bool    `json:"slo_met"`
		BEFairness    float64 `json:"be_fairness"`
		BEThroughput  float64 `json:"be_throughput"`
		Error         string  `json:"error,omitempty"`
	}
	rows := make([]row, 0, len(results))
	var firstErr error
	for _, cr := range results {
		r := row{Index: cr.Index, Label: cr.Label}
		if cr.Err != nil {
			r.Error = cr.Err.Error()
			if firstErr == nil {
				firstErr = fmt.Errorf("cell %d (%s): %w", cr.Index, cr.Label, cr.Err)
			}
		} else {
			r.Policy = cr.Result.Policy
			r.ViolationRate = cr.Result.LCViolationRate
			r.MeanP99 = cr.Result.LCMeanP99
			r.SLOMet = cr.Result.SLOMet
			r.BEFairness = cr.Result.BEFairness
			r.BEThroughput = cr.Result.BEThroughput
		}
		rows = append(rows, r)
	}
	if err := printJSON(rows); err != nil {
		return err
	}
	return firstErr
}

// cmdSweepInfo prints the fleet's stats — node pool size, sweep counts,
// and how much journaled work a restarted daemon resumed.
func cmdSweepInfo(ctx context.Context, c *cluster.Client) error {
	st, err := c.Status(ctx)
	if err != nil {
		return err
	}
	return printJSON(st)
}

func cmdSweepSubmit(ctx context.Context, c *cluster.Client, args []string) error {
	fs := flag.NewFlagSet("mtatctl sweep submit", flag.ContinueOnError)
	var (
		specPath = fs.String("f", "", `sweep spec JSON file ("-" for stdin; required)`)
		wait     = fs.Bool("wait", false, "block until the sweep finishes and report the outcome")
		timeout  = fs.Duration("timeout", 0, "give up waiting after this long (0 = forever; implies -wait)")
		poll     = fs.Duration("poll", daemonkit.DefaultPollInterval, "max status poll interval while waiting")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("sweep submit: -f spec file required")
	}
	data, err := readSpecFile(*specPath)
	if err != nil {
		return err
	}
	spec, err := sim.ParseSweepSpec(data)
	if err != nil {
		return err
	}
	// Open a fresh distributed trace: the fleet's sweep.run span, every
	// cell.dispatch/node.run, and the node-side run.execute spans all
	// join it, so `mtatctl trace <sweep-id>` renders one connected tree.
	ctx, trace := telemetry.NewTraceContext(ctx)
	st, err := c.SubmitSweep(ctx, spec)
	if err != nil {
		return err
	}
	// The bare sweep ID on stdout is the scripting contract; context goes
	// to stderr.
	fmt.Fprintf(os.Stderr, "submitted %s (%s, %d cells)\n", st.ID, st.Name, st.Cells)
	fmt.Fprintf(os.Stderr, "trace %s\n", trace)
	fmt.Println(st.ID)
	if !*wait && *timeout == 0 {
		return nil
	}
	return sweepWaitAndReport(ctx, c, st.ID, *timeout, *poll)
}

func cmdSweepStatus(ctx context.Context, c *cluster.Client, args []string) error {
	if len(args) == 0 {
		sweeps, err := c.Sweeps(ctx)
		if err != nil {
			return err
		}
		if len(sweeps) == 0 {
			fmt.Println("no sweeps")
			return nil
		}
		fmt.Printf("%-10s %-16s %-10s %6s %6s %6s %7s  %s\n",
			"ID", "NAME", "STATE", "CELLS", "DONE", "FAILED", "RETRIED", "SUBMITTED")
		for _, st := range sweeps {
			fmt.Printf("%-10s %-16s %-10s %6d %6d %6d %7d  %s\n",
				st.ID, st.Name, st.State, st.Cells, st.Done, st.Failed, st.Retried,
				st.SubmittedAt.Format(time.RFC3339))
		}
		return nil
	}
	st, err := c.Sweep(ctx, args[0])
	if err != nil {
		return err
	}
	return printJSON(st)
}

func cmdSweepWait(ctx context.Context, c *cluster.Client, args []string) error {
	fs := flag.NewFlagSet("mtatctl sweep wait", flag.ContinueOnError)
	timeout := fs.Duration("timeout", 0, "give up after this long (0 = forever)")
	poll := fs.Duration("poll", daemonkit.DefaultPollInterval, "max status poll interval")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("sweep wait: exactly one sweep ID required")
	}
	return sweepWaitAndReport(ctx, c, fs.Arg(0), *timeout, *poll)
}

// sweepWaitAndReport blocks until the sweep is terminal, prints the
// outcome, and fails unless every cell completed.
func sweepWaitAndReport(ctx context.Context, c *cluster.Client, id string, timeout, poll time.Duration) error {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	st, err := c.WaitSweep(ctx, id, poll)
	if err != nil {
		return fmt.Errorf("wait %s: %w", id, err)
	}
	if st.State != cluster.SweepDone {
		return fmt.Errorf("sweep %s %s: %d/%d cells done, %d failed",
			st.ID, st.State, st.Done, st.Cells, st.Failed)
	}
	fmt.Fprintf(os.Stderr, "sweep %s done (%d cells, %d retried)\n", st.ID, st.Cells, st.Retried)
	return printJSON(st)
}

func cmdSweepResults(ctx context.Context, c *cluster.Client, args []string) error {
	fs := flag.NewFlagSet("mtatctl sweep results", flag.ContinueOnError)
	format := fs.String("format", "json", "export format: json, jsonl, or csv")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("sweep results: exactly one sweep ID required")
	}
	return c.ResultsTo(ctx, fs.Arg(0), *format, os.Stdout)
}

func cmdSweepNodes(ctx context.Context, c *cluster.Client, args []string) error {
	fs := flag.NewFlagSet("mtatctl sweep nodes", flag.ContinueOnError)
	var (
		add    = fs.String("add", "", "register a mtatd node at this address")
		weight = fs.Float64("weight", 1, "capacity weight for -add")
		remove = fs.String("remove", "", "deregister a node by name or address")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *add != "":
		info, err := c.AddNode(ctx, *add, *weight)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "added %s = %s\n", info.Name, info.Addr)
		fmt.Println(info.Name)
		return nil
	case *remove != "":
		if err := c.RemoveNode(ctx, *remove); err != nil {
			return err
		}
		fmt.Printf("removed %s\n", *remove)
		return nil
	}
	nodes, err := c.Nodes(ctx)
	if err != nil {
		return err
	}
	if len(nodes) == 0 {
		fmt.Println("no nodes")
		return nil
	}
	fmt.Printf("%-8s %-28s %-8s %8s %10s %7s  %s\n",
		"NAME", "ADDR", "HEALTHY", "INFLIGHT", "DISPATCHED", "FAILED", "LAST ERROR")
	for _, n := range nodes {
		fmt.Printf("%-8s %-28s %-8v %8d %10d %7d  %s\n",
			n.Name, n.Addr, n.Healthy, n.Inflight, n.Dispatched, n.Failed, orDash(n.LastError))
	}
	return nil
}

func cmdSweepCancel(ctx context.Context, c *cluster.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("sweep cancel: exactly one sweep ID required")
	}
	st, err := c.CancelSweep(ctx, args[0])
	if err != nil {
		return err
	}
	fmt.Printf("sweep %s %s\n", st.ID, st.State)
	return nil
}
