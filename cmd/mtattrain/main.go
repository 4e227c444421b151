// Command mtattrain pre-trains an MTAT agent on a co-location scenario and
// saves its weights for reuse by mtatsim.
//
// Usage:
//
//	mtattrain -lc redis -variant full -episodes 60 -o redis-full.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/tieredmem/mtat"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mtattrain:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		lcName   = flag.String("lc", "redis", "latency-critical workload (redis, memcached, mongodb, silo)")
		beNames  = flag.String("bes", "sssp,bfs,pr,xsbench", "comma-separated best-effort workloads")
		variant  = flag.String("variant", "full", "MTAT variant: full or lconly")
		episodes = flag.Int("episodes", 60, "pre-training episodes")
		scale    = flag.Int("scale", 1, "memory scale divisor")
		seed     = flag.Int64("seed", 1, "random seed")
		outPath  = flag.String("o", "mtat-agent.json", "output weights file")
		httpAddr = flag.String("http", "", "serve live metrics, trace, and pprof on this address during training (e.g. :6060)")
	)
	flag.Parse()

	v := mtat.VariantFull
	switch *variant {
	case "full":
	case "lconly":
		v = mtat.VariantLCOnly
	default:
		return fmt.Errorf("unknown variant %q (want full or lconly)", *variant)
	}

	scn, err := mtat.NewScenario(mtat.ScenarioOpts{
		LC:    *lcName,
		BEs:   splitList(*beNames),
		Scale: *scale,
		Seed:  *seed,
	})
	if err != nil {
		return err
	}
	cfg, err := mtat.MTATConfigFor(scn)
	if err != nil {
		return err
	}
	m, err := mtat.NewMTAT(v, cfg)
	if err != nil {
		return err
	}

	fmt.Printf("training %s on %s + %s for %d episodes (scale %d)...\n",
		v, *lcName, *beNames, *episodes, *scale)
	trainScn := scn
	trainScn.TickSeconds = mtat.TrainTickSeconds
	if *httpAddr != "" {
		// Live introspection while training: the ring buffer and metrics
		// registry accumulate across episodes and are served read-only.
		tel := mtat.NewTelemetry()
		trainScn.Telemetry = tel
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
	if err := mtat.Pretrain(m, trainScn, *episodes); err != nil {
		return err
	}
	weights, err := m.SaveAgent()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*outPath, weights, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d bytes to %s\n", len(weights), *outPath)
	return nil
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
