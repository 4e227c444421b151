package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/tieredmem/mtat/internal/cluster"
	"github.com/tieredmem/mtat/internal/daemonkit"
	"github.com/tieredmem/mtat/internal/hypothesis"
	"github.com/tieredmem/mtat/internal/server"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// cmdExperiment dispatches the hypothesis-harness subcommand family.
func cmdExperiment(ctx context.Context, c *server.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("experiment: missing subcommand (run|status|report)")
	}
	switch args[0] {
	case "run":
		return cmdExperimentRun(ctx, c, args[1:])
	case "status":
		return cmdExperimentStatus(args[1:])
	case "report":
		return cmdExperimentReport(args[1:])
	default:
		return fmt.Errorf("experiment: unknown subcommand %q (run|status|report)", args[0])
	}
}

// loadExperimentSpec reads, parses, and validates the -f spec argument.
func loadExperimentSpec(fs *flag.FlagSet, specPath string) (hypothesis.ExperimentSpec, error) {
	if specPath == "" && fs.NArg() == 1 {
		// `mtatctl experiment run spec.json` works without -f.
		specPath = fs.Arg(0)
	}
	if specPath == "" {
		return hypothesis.ExperimentSpec{}, fmt.Errorf("experiment: spec file required (-f spec.json)")
	}
	data, err := readSpecFile(specPath)
	if err != nil {
		return hypothesis.ExperimentSpec{}, err
	}
	spec, err := hypothesis.ParseExperimentSpec(data)
	if err != nil {
		return hypothesis.ExperimentSpec{}, err
	}
	if err := spec.Validate(); err != nil {
		return hypothesis.ExperimentSpec{}, err
	}
	return spec, nil
}

// writeReports renders the verdict to <out>/<name>.report.md and
// <out>/<name>.verdict.json, and the verdict JSON to stdout (the
// scripting contract: CI pipes it into a check).
func writeReports(a *hypothesis.Analysis, outDir, specPath string) error {
	meta := hypothesis.ReportMeta{
		Date:     time.Now().UTC().Format("2006-01-02"),
		SpecPath: specPath,
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	mdPath := filepath.Join(outDir, a.Name+".report.md")
	md, err := os.Create(mdPath)
	if err != nil {
		return err
	}
	if err := hypothesis.WriteMarkdown(md, a, meta); err != nil {
		md.Close()
		return err
	}
	if err := md.Close(); err != nil {
		return err
	}
	vjPath := filepath.Join(outDir, a.Name+".verdict.json")
	vj, err := os.Create(vjPath)
	if err != nil {
		return err
	}
	if err := hypothesis.WriteVerdictJSON(vj, a); err != nil {
		vj.Close()
		return err
	}
	if err := vj.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s and %s\n", mdPath, vjPath)
	return hypothesis.WriteVerdictJSON(os.Stdout, a)
}

func cmdExperimentRun(ctx context.Context, c *server.Client, args []string) error {
	fs := flag.NewFlagSet("mtatctl experiment run", flag.ContinueOnError)
	var (
		specPath  = fs.String("f", "", `experiment spec JSON file ("-" for stdin)`)
		stateDir  = fs.String("state", defaultStateDir(), "experiment journal root (empty disables crash recovery)")
		outDir    = fs.String("o", ".", "report output directory")
		fleetAddr = fs.String("fleet", "", "run via this mtatfleet instead of mtatd (also $MTATFLEET_ADDR when -fleet '' is given explicitly)")
		local     = fs.Bool("local", false, "run in-process, no daemon needed (slower wall clock: no fleet sharding)")
		timeout   = fs.Duration("timeout", 0, "give up after this long (0 = forever)")
		poll      = fs.Duration("poll", daemonkit.DefaultPollInterval, "max status poll interval")
		maxOutage = fs.Duration("max-outage", daemonkit.DefaultMaxOutage, "tolerated daemon unreachability before failing (node mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadExperimentSpec(fs, *specPath)
	if err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	r := &hypothesis.Runner{
		DataDir: *stateDir,
		Poll:    *poll,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
	}
	switch {
	case *local:
		cells := len(spec.Cells())
		mgr, err := server.NewManager(server.Config{
			Workers:   runtime.GOMAXPROCS(0),
			QueueCap:  2 * cells,
			Telemetry: telemetry.New(),
		})
		if err != nil {
			return err
		}
		defer func() {
			sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer scancel()
			_ = mgr.Shutdown(sctx)
		}()
		r.Backend = &hypothesis.LocalBackend{Manager: mgr}
	case *fleetAddr != "":
		r.Fleet = cluster.NewClient(*fleetAddr)
	default:
		r.Backend = &hypothesis.NodeBackend{Client: c, Poll: *poll, MaxOutage: *maxOutage}
	}

	// One trace for the whole experiment: every submission carries it,
	// so `mtatctl trace <trace-id>` walks all the runs. A resumed
	// experiment re-adopts its journaled trace inside the runner.
	ctx, trace := telemetry.NewTraceContext(ctx)
	fmt.Fprintf(os.Stderr, "experiment %s: %d cells, trace %s\n", spec.Name, len(spec.Cells()), trace)

	a, err := r.Run(ctx, spec)
	if err != nil {
		return err
	}
	return writeReports(a, *outDir, *specPath)
}

func cmdExperimentStatus(args []string) error {
	fs := flag.NewFlagSet("mtatctl experiment status", flag.ContinueOnError)
	specPath := fs.String("f", "", `experiment spec JSON file ("-" for stdin)`)
	stateDir := fs.String("state", defaultStateDir(), "experiment journal root")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadExperimentSpec(fs, *specPath)
	if err != nil {
		return err
	}
	st, _, err := hypothesis.ReadState(*stateDir, spec)
	if err != nil {
		return err
	}
	return printJSON(st)
}

// cmdExperimentReport re-renders the verdict from the journal, without
// running anything — works offline, mid-experiment (on whatever has
// settled), and after the daemons are gone.
func cmdExperimentReport(args []string) error {
	fs := flag.NewFlagSet("mtatctl experiment report", flag.ContinueOnError)
	specPath := fs.String("f", "", `experiment spec JSON file ("-" for stdin)`)
	stateDir := fs.String("state", defaultStateDir(), "experiment journal root")
	outDir := fs.String("o", ".", "report output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadExperimentSpec(fs, *specPath)
	if err != nil {
		return err
	}
	st, ms, err := hypothesis.ReadState(*stateDir, spec)
	if err != nil {
		return err
	}
	a, err := hypothesis.Analyze(spec, ms)
	if err != nil {
		return err
	}
	a.Trace = st.Trace
	return writeReports(a, *outDir, *specPath)
}

// defaultStateDir roots experiment journals; overridable so CI and
// tests can isolate.
func defaultStateDir() string {
	if d := os.Getenv("MTATCTL_STATE"); d != "" {
		return d
	}
	return ".mtatctl"
}
