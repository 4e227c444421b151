package daemonkit

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/tieredmem/mtat/internal/telemetry"
	"github.com/tieredmem/mtat/internal/tenant"
)

// SetupLogging installs a structured slog default logger on stderr —
// the sink for both the API middleware's request lines and the
// daemon's operational lines. Returns an error on an unknown level or
// format.
func SetupLogging(level, format string) error {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return fmt.Errorf("-log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	switch strings.ToLower(format) {
	case "text", "":
		h = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return fmt.Errorf("-log-format %q: want text or json", format)
	}
	slog.SetDefault(slog.New(h))
	return nil
}

// Logf adapts the structured default logger to the printf-style Logf
// hooks the manager and the fleet expose.
func Logf(format string, args ...any) {
	slog.Info(fmt.Sprintf(format, args...))
}

// LoadTenants builds the tenant registry from -tenants. An empty path
// returns nil, which selects the permissive single-tenant registry —
// daemons without the flag behave exactly as before multi-tenancy.
func LoadTenants(path string, tel *telemetry.Telemetry) (*tenant.Registry, error) {
	if path == "" {
		return nil, nil
	}
	cfg, err := tenant.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("-tenants: %w", err)
	}
	reg, err := tenant.New(&cfg, tel)
	if err != nil {
		return nil, fmt.Errorf("-tenants: %w", err)
	}
	slog.Info("tenant config loaded", "path", path, "tenants", reg.Count())
	return reg, nil
}

// ReloadTenantsOnHUP re-reads path and hot-swaps reg's tenant set on
// every SIGHUP — the same path as POST /api/v1/config/tenants, minus
// the network — then calls reloaded (when non-nil). A config that no
// longer parses or validates keeps the previous set: a bad edit must
// not lock every tenant out. An empty path (no -tenants) is a no-op.
func ReloadTenantsOnHUP(path string, reg *tenant.Registry, reloaded func()) {
	if path == "" {
		return
	}
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			cfg, err := tenant.LoadFile(path)
			if err == nil {
				err = reg.Reload(cfg)
			}
			if err != nil {
				slog.Error("tenant reload failed; keeping previous config", "path", path, "err", err)
				continue
			}
			if reloaded != nil {
				reloaded()
			}
			slog.Info("tenant config reloaded", "path", path,
				"tenants", reg.Count(), "generation", reg.Generation())
		}
	}()
}

// Drainer is a control plane that can stop accepting work and drain
// what it holds; server.Manager and cluster.Fleet both satisfy it.
type Drainer interface {
	Shutdown(ctx context.Context) error
}

// ServeUntilSignal blocks until SIGINT or SIGTERM, then drains d for up
// to drain (work still outstanding at the deadline is cancelled, and
// logged as the named leftover, e.g. "outstanding runs") and shuts the
// HTTP listener down within 5s.
func ServeUntilSignal(srv *telemetry.Server, d Drainer, drain time.Duration, leftover string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()

	slog.Info("shutting down", "drain", drain.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := d.Shutdown(drainCtx); err != nil {
		slog.Warn("drain deadline hit, " + leftover + " cancelled")
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	return srv.Shutdown(httpCtx)
}
