// Command mtatd is the scenario-as-a-service control plane: a long-lived
// daemon that accepts JSON run specs over a REST API, executes them on a
// bounded worker pool, and retains per-run results and traces for
// inspection. cmd/mtatctl is the matching client.
//
// Usage:
//
//	mtatd                         # listen on 127.0.0.1:7070
//	mtatd -addr :0                # pick a free port (printed on stdout)
//	mtatd -workers 4 -queue 128
//
// SIGINT/SIGTERM triggers a graceful shutdown: the daemon stops accepting
// submissions and drains queued and running work for -drain, then cancels
// whatever is left.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"github.com/tieredmem/mtat/internal/daemonkit"
	"github.com/tieredmem/mtat/internal/server"
	"github.com/tieredmem/mtat/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mtatd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "listen address (use :0 for a free port)")
		workers  = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queueCap = flag.Int("queue", server.DefaultQueueCap, "submission queue capacity")
		maxRuns  = flag.Int("max-runs", server.DefaultMaxRuns, "retained finished runs before eviction")
		traceCap = flag.Int("run-trace-cap", server.DefaultRunTraceCapacity, "per-run trace ring capacity (events)")
		episodes = flag.Int("episodes", 0, "default MTAT in-process training episodes for specs that omit it")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")
		dataDir  = flag.String("data-dir", "", "journal directory for crash-safe run recovery (empty = in-memory only)")
		fsync    = flag.Bool("fsync", false, "fsync the journal after every append (with -data-dir)")
		pprof    = flag.Bool("pprof", false, "mount Go profiling endpoints under /debug/pprof/")
		tenants  = flag.String("tenants", "", "tenant config file (JSON): bearer-token auth, quotas, fair-share weights; empty = single anonymous tenant, unlimited")
		logLevel = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		logFmt   = flag.String("log-format", "text", "structured log format: text or json")
	)
	flag.Parse()

	if err := daemonkit.SetupLogging(*logLevel, *logFmt); err != nil {
		return err
	}
	tel := telemetry.NewWithConfig(telemetry.Config{Service: "mtatd"})
	reg, err := daemonkit.LoadTenants(*tenants, tel)
	if err != nil {
		return err
	}
	mgr, err := server.NewManager(server.Config{
		Workers:          *workers,
		QueueCap:         *queueCap,
		MaxRuns:          *maxRuns,
		RunTraceCapacity: *traceCap,
		DefaultEpisodes:  *episodes,
		Telemetry:        tel,
		DataDir:          *dataDir,
		Fsync:            *fsync,
		Tenants:          reg,
		Logf:             daemonkit.Logf,
	})
	if err != nil {
		return fmt.Errorf("-data-dir: %w", err)
	}
	// SIGHUP re-reads the -tenants file and hot-swaps the tenant set —
	// the same path as POST /api/v1/config/tenants, minus the network.
	daemonkit.ReloadTenantsOnHUP(*tenants, mgr.Tenants(), mgr.TenantsReloaded)
	if st := mgr.Stats(); st.RecoveredRuns > 0 {
		slog.Info("recovered unfinished runs from journal",
			"runs", st.RecoveredRuns, "data_dir", *dataDir)
	}

	srv, err := telemetry.Serve(*addr, server.NewHandler(mgr, tel, *pprof))
	if err != nil {
		return fmt.Errorf("-addr: %w", err)
	}
	// The listen line is the machine-readable contract: scripts (and the
	// CI smoke test) parse the bound address from it.
	fmt.Printf("mtatd: listening on http://%s (workers %d, queue %d)\n",
		srv.Addr(), mgr.Workers(), *queueCap)

	return daemonkit.ServeUntilSignal(srv, mgr, *drain, "outstanding runs")
}
