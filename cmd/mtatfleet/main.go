// Command mtatfleet is the fleet scheduler: a daemon that shards
// parameter sweeps across many mtatd nodes. It tracks node health,
// places each sweep cell on the least-loaded healthy node, retries
// across nodes when one dies mid-run, and aggregates per-cell summaries
// for JSON/JSONL/CSV export. cmd/mtatctl's sweep subcommands are the
// matching client.
//
// Usage:
//
//	mtatfleet -nodes 127.0.0.1:7070,127.0.0.1:7071
//	mtatfleet -addr :0 -nodes 127.0.0.1:7070     # free port, printed on stdout
//	mtatfleet -strategy round-robin -parallel 16
//
// Nodes can also be registered at runtime via POST /api/v1/nodes (see
// mtatctl sweep nodes -add). SIGINT/SIGTERM drains running sweeps for
// -drain, then cancels whatever is left.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"github.com/tieredmem/mtat/internal/cluster"
	"github.com/tieredmem/mtat/internal/daemonkit"
	"github.com/tieredmem/mtat/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mtatfleet:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", "127.0.0.1:7171", "listen address (use :0 for a free port)")
		nodes        = flag.String("nodes", "", "comma-separated mtatd addresses to register at startup")
		strategyName = flag.String("strategy", "", "placement strategy: "+strings.Join(cluster.StrategyNames(), ", "))
		parallel     = flag.Int("parallel", cluster.DefaultSweepParallelism, "concurrently dispatched cells per sweep")
		inflight     = flag.Int("inflight", 0, "in-flight runs per node (0 = each node's worker count)")
		retries      = flag.Int("retries", cluster.DefaultMaxNodeAttempts, "distinct nodes to try per cell before giving up")
		probe        = flag.Duration("probe", cluster.DefaultProbeInterval, "node health-probe interval")
		probeTimeout = flag.Duration("probe-timeout", cluster.DefaultProbeTimeout, "per-probe timeout")
		markdown     = flag.Int("markdown-after", cluster.DefaultMarkdownAfter, "consecutive probe failures before a node is marked down")
		maxSweeps    = flag.Int("max-sweeps", cluster.DefaultMaxSweeps, "retained finished sweeps before eviction")
		drain        = flag.Duration("drain", 60*time.Second, "graceful-shutdown drain deadline")
		dataDir      = flag.String("data-dir", "", "journal directory for crash-safe sweep recovery (empty = in-memory only)")
		fsync        = flag.Bool("fsync", false, "fsync the journal after every append (with -data-dir)")
		pprof        = flag.Bool("pprof", false, "mount Go profiling endpoints under /debug/pprof/")
		slowFactor   = flag.Float64("slow-cell-factor", cluster.DefaultSlowCellFactor,
			"flag cells slower than this multiple of the sweep's median cell wall time")
		tenants   = flag.String("tenants", "", "tenant config file (JSON): bearer-token auth, quotas; empty = single anonymous tenant, unlimited")
		nodeToken = flag.String("node-token", "", "bearer token presented to nodes (list it as an admin tenant on the nodes for per-tenant attribution)")
		logLevel  = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		logFmt    = flag.String("log-format", "text", "structured log format: text or json")
	)
	flag.Parse()

	if err := daemonkit.SetupLogging(*logLevel, *logFmt); err != nil {
		return err
	}
	strategy, err := cluster.StrategyByName(*strategyName)
	if err != nil {
		return err
	}

	tel := telemetry.NewWithConfig(telemetry.Config{Service: "mtatfleet"})
	treg, err := daemonkit.LoadTenants(*tenants, tel)
	if err != nil {
		return err
	}
	fleet, err := cluster.NewFleet(cluster.FleetConfig{
		Registry: cluster.RegistryConfig{
			ProbeInterval:   *probe,
			ProbeTimeout:    *probeTimeout,
			MarkdownAfter:   *markdown,
			InflightPerNode: *inflight,
		},
		Dispatcher: cluster.DispatcherConfig{
			Strategy:        strategy,
			MaxNodeAttempts: *retries,
		},
		SweepParallelism: *parallel,
		MaxSweeps:        *maxSweeps,
		SlowCellFactor:   *slowFactor,
		Telemetry:        tel,
		DataDir:          *dataDir,
		Fsync:            *fsync,
		Tenants:          treg,
		NodeToken:        *nodeToken,
		Logf:             daemonkit.Logf,
	})
	if err != nil {
		return fmt.Errorf("-data-dir: %w", err)
	}
	// SIGHUP re-reads the -tenants file and hot-swaps the tenant set —
	// the same path as POST /api/v1/config/tenants, minus the network.
	daemonkit.ReloadTenantsOnHUP(*tenants, fleet.Tenants(), nil)

	for _, nodeAddr := range splitList(*nodes) {
		info, err := fleet.Reg.Add(nodeAddr, 1)
		if err != nil {
			return fmt.Errorf("-nodes %s: %w", nodeAddr, err)
		}
		slog.Info("registered node", "name", info.Name, "addr", info.Addr, "healthy", info.Healthy)
	}

	// Resume journaled unfinished sweeps only after the node pool is
	// registered — dispatching against an empty registry fails every
	// cell immediately.
	for _, st := range fleet.Resume() {
		slog.Info("resumed sweep from journal", "sweep", st.ID, "name", st.Name,
			"cells_left", st.Cells-st.Done-st.Failed, "cells", st.Cells)
	}

	srv, err := telemetry.Serve(*addr, cluster.NewHandler(fleet, tel, *pprof))
	if err != nil {
		return fmt.Errorf("-addr: %w", err)
	}
	// The listen line is the machine-readable contract: scripts (and the
	// CI fleet-smoke test) parse the bound address from it.
	fmt.Printf("mtatfleet: listening on http://%s (%d nodes, parallel %d)\n",
		srv.Addr(), len(fleet.Reg.Nodes()), *parallel)

	return daemonkit.ServeUntilSignal(srv, fleet, *drain, "running sweeps")
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
