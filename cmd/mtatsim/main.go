// Command mtatsim runs one co-location scenario under a chosen policy and
// reports latency, allocation, and fairness outcomes.
//
// Usage:
//
//	mtatsim -lc redis -policy memtis
//	mtatsim -lc redis -policy mtat-full -agent redis-full.json
//	mtatsim -lc memcached -policy mtat-full -episodes 60 -load 0.8 -csv run.csv
//
// Policies: fmem-all, smem-all, memtis, tpp, mtat-full, mtat-lconly. For
// MTAT policies, either pass pre-trained weights via -agent (see
// mtattrain) or let mtatsim train in-process with -episodes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/tieredmem/mtat"
	"github.com/tieredmem/mtat/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mtatsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		lcName    = flag.String("lc", "redis", "latency-critical workload (redis, memcached, mongodb, silo)")
		beNames   = flag.String("bes", "sssp,bfs,pr,xsbench", "comma-separated best-effort workloads")
		polName   = flag.String("policy", "memtis", "policy: "+strings.Join(mtat.PolicyNames(), ", "))
		loadSpec  = flag.Float64("load", 0, "constant load fraction; 0 uses the Figure 7 ramp")
		duration  = flag.Float64("duration", 0, "run length in seconds (0 = load pattern length)")
		scale     = flag.Int("scale", 1, "memory scale divisor")
		seed      = flag.Int64("seed", 1, "random seed")
		episodes  = flag.Int("episodes", 60, "in-process MTAT training episodes when -agent is not given")
		agentPath = flag.String("agent", "", "pre-trained MTAT agent weights (from mtattrain)")
		csvPath   = flag.String("csv", "", "write the run's time series to this CSV file")
		timeline  = flag.Bool("timeline", true, "print a 20 s-resolution timeline")
		tracePath = flag.String("trace", "", "write the structured event trace as JSONL to this file")
		dumpMet   = flag.Bool("metrics-dump", false, "print the metrics registry as JSON after the run")
		httpAddr  = flag.String("http", "", "serve live metrics, trace, and pprof on this address (e.g. :6060)")
	)
	flag.Parse()

	opts := mtat.ScenarioOpts{
		LC:    *lcName,
		BEs:   splitList(*beNames),
		Scale: *scale,
		Seed:  *seed,
	}
	if *loadSpec > 0 {
		dur := *duration
		if dur == 0 {
			dur = 120
		}
		load, err := mtat.ConstantLoad(*loadSpec, dur)
		if err != nil {
			return err
		}
		opts.Load = load
	}
	scn, err := mtat.NewScenario(opts)
	if err != nil {
		return err
	}
	if *duration > 0 {
		scn.DurationSeconds = *duration
	}

	// Open the trace file before training and the (possibly hour-long)
	// run so a bad path fails now, not after the work is done.
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		traceFile = f
		defer traceFile.Close()
	}

	pol, err := buildPolicy(*polName, scn, *agentPath, *episodes)
	if err != nil {
		return err
	}

	// Attach the sink only after buildPolicy so in-process pretraining
	// does not flood the trace; the recorded run starts clean.
	var tel *mtat.Telemetry
	if *tracePath != "" || *dumpMet || *httpAddr != "" {
		tel = mtat.NewTelemetry()
		scn.Telemetry = tel
	}
	if *httpAddr != "" {
		srv, err := mtat.ServeTelemetry(*httpAddr, tel)
		if err != nil {
			return fmt.Errorf("-http: %w", err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}()
		fmt.Fprintf(os.Stderr, "serving metrics/trace/pprof on %s/\n", srv.URL())
	}

	res, err := mtat.Run(scn, pol)
	if err != nil {
		return err
	}

	fmt.Printf("policy: %s | LC: %s (SLO %.0f ms) | BEs: %s\n",
		res.Policy, *lcName, scn.LC.SLOSeconds*1000, *beNames)
	fmt.Printf("SLO met: %v | violation rate: %.2f%% | max P99: %.2f ms | mean P99: %.2f ms\n",
		res.SLOMet, res.LCViolationRate*100, res.LCMaxP99*1000, res.LCMeanP99*1000)
	fmt.Printf("BE fairness: %.3f | BE throughput: %.4g work/s | migrated: %d MiB\n",
		res.BEFairness, res.BEThroughput, res.MigratedBytes>>20)
	for _, be := range res.BEs {
		fmt.Printf("  %-10s NP %.3f  throughput %.4g  avg FMem pages %.0f\n",
			be.Name, be.NP, be.Throughput, be.AvgFMemPages)
	}

	if *timeline {
		fmt.Printf("\n%-8s %10s %12s %12s\n", "time(s)", "load KRPS", "P99 (ms)", "LC FMem")
		for t := 0.0; t < res.Scenario.DurationSeconds; t += 20 {
			fmt.Printf("%-8.0f %10.1f %12.2f %12.3f\n",
				t, res.LCLoadKRPS.At(t), res.LCP99.At(t)*1000, res.LCFMemRatio.At(t))
		}
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		set := stats.NewSeriesSet()
		loadS := set.Get("load_krps")
		p99S := set.Get("p99_ms")
		fmemS := set.Get("lc_fmem_ratio")
		for i, t := range res.Time.Times {
			loadS.Append(t, res.LCLoadKRPS.Values[i])
			p99S.Append(t, res.LCP99.Values[i]*1000)
			fmemS.Append(t, res.LCFMemRatio.Values[i])
		}
		if err := set.WriteCSV(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", *csvPath)
	}

	if traceFile != nil {
		if err := tel.Tracer().WriteJSONL(traceFile); err != nil {
			return err
		}
		if err := traceFile.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d events, %d dropped)\n",
			*tracePath, tel.Tracer().Len(), tel.Tracer().Dropped())
	}
	if *dumpMet {
		fmt.Println()
		if err := tel.Metrics().WriteJSON(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// buildPolicy constructs the requested policy: an MTAT agent loaded from
// agentPath when one is given, otherwise whatever NewPolicyByName builds
// (MTAT variants train in-process for the given episodes).
func buildPolicy(name string, scn mtat.Scenario, agentPath string, episodes int) (mtat.Policy, error) {
	isMTAT := name == "mtat-full" || name == "mtat-lconly"
	if agentPath == "" || !isMTAT {
		if isMTAT {
			fmt.Fprintf(os.Stderr, "training %s for %d episodes (pass -agent to skip)...\n", name, episodes)
		}
		return mtat.NewPolicyByName(context.Background(), name, scn, episodes)
	}
	variant := mtat.VariantFull
	if name == "mtat-lconly" {
		variant = mtat.VariantLCOnly
	}
	cfg, err := mtat.MTATConfigFor(scn)
	if err != nil {
		return nil, err
	}
	m, err := mtat.NewMTAT(variant, cfg)
	if err != nil {
		return nil, err
	}
	weights, err := os.ReadFile(agentPath)
	if err != nil {
		return nil, err
	}
	if err := m.LoadAgent(weights); err != nil {
		return nil, err
	}
	m.SetEvalMode(true)
	m.ResetEpisode()
	return m, nil
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}
