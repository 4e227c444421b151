package daemonkit

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/tieredmem/mtat/internal/telemetry"
	"github.com/tieredmem/mtat/internal/tenant"
)

// fakeDaemon is the smallest Daemon: a two-tenant registry and a
// readiness switch.
type fakeDaemon struct {
	reg    *tenant.Registry
	bus    *telemetry.EventBus
	ready  atomic.Bool
	reason string
}

func (d *fakeDaemon) Tenants() *tenant.Registry { return d.reg }
func (d *fakeDaemon) Ready() (bool, string)     { return d.ready.Load(), d.reason }
func (d *fakeDaemon) Bus() *telemetry.EventBus  { return d.bus }
func (d *fakeDaemon) SyncBusMetrics()           {}

const (
	adminToken = "tok-admin"
	aliceToken = "tok-alice"
	index      = "testd control plane\n"
)

func twoTenants() tenant.Config {
	return tenant.Config{Tenants: []tenant.Spec{
		{Name: "ops", Token: adminToken, Admin: true},
		{Name: "alice", Token: aliceToken},
	}}
}

// newTestDaemon serves the shared routes alone (no domain routes) and
// returns the daemon, an admin client, and a counter of reload-hook
// calls.
func newTestDaemon(t *testing.T, pprof bool) (*fakeDaemon, *Client, *atomic.Int32) {
	t.Helper()
	tel := telemetry.New()
	cfg := twoTenants()
	reg, err := tenant.New(&cfg, tel)
	if err != nil {
		t.Fatal(err)
	}
	d := &fakeDaemon{reg: reg, bus: telemetry.NewEventBus(telemetry.BusConfig{}), reason: "replaying journal"}
	var reloads atomic.Int32
	srv := httptest.NewServer(Handler(http.NewServeMux(), d, tel, pprof, index,
		func() { reloads.Add(1) }))
	t.Cleanup(srv.Close)
	c := NewClient("testd", srv.URL)
	c.Token = adminToken
	return d, c, &reloads
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestProbes(t *testing.T) {
	d, c, _ := newTestDaemon(t, false)
	ctx := context.Background()

	if code, body := get(t, c.BaseURL+"/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	code, body := get(t, c.BaseURL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "replaying journal") {
		t.Errorf("/readyz while not ready = %d %q, want 503 with the reason", code, body)
	}
	if err := c.Ready(ctx); err == nil || !strings.Contains(err.Error(), "testd: not ready: replaying journal") {
		t.Errorf("Ready() while not ready = %v", err)
	}

	d.ready.Store(true)
	if code, body := get(t, c.BaseURL+"/readyz"); code != http.StatusOK || body != "ready\n" {
		t.Errorf("/readyz when ready = %d %q", code, body)
	}
	if err := c.Ready(ctx); err != nil {
		t.Errorf("Ready() when ready = %v", err)
	}
}

func TestTenantsList(t *testing.T) {
	_, c, _ := newTestDaemon(t, false)
	usages, err := c.Tenants(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, u := range usages {
		names[u.Name] = true
	}
	if !names["ops"] || !names["alice"] {
		t.Errorf("tenants = %+v, want ops and alice", usages)
	}
}

func TestConfigReload(t *testing.T) {
	d, c, reloads := newTestDaemon(t, false)
	ctx := context.Background()
	gen := d.reg.Generation()

	alice := NewClient("testd", c.BaseURL)
	alice.Token = aliceToken
	var apiErr *APIError
	if _, err := alice.ReloadTenants(ctx, twoTenants()); !errors.As(err, &apiErr) ||
		apiErr.StatusCode != http.StatusForbidden {
		t.Errorf("non-admin reload = %v, want 403", err)
	}

	bad := tenant.Config{Tenants: []tenant.Spec{{Name: "tokenless"}}}
	if _, err := c.ReloadTenants(ctx, bad); !errors.As(err, &apiErr) ||
		apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid config reload = %v, want 400", err)
	}
	if got := d.reg.Generation(); got != gen {
		t.Errorf("rejected reloads moved the generation %d -> %d", gen, got)
	}
	if n := reloads.Load(); n != 0 {
		t.Errorf("reload hook ran %d times for rejected reloads", n)
	}

	good := twoTenants()
	good.Tenants = append(good.Tenants, tenant.Spec{Name: "bob", Token: "tok-bob"})
	res, err := c.ReloadTenants(ctx, good)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tenants != 3 || res.Generation != gen+1 {
		t.Errorf("reload result = %+v, want 3 tenants at generation %d", res, gen+1)
	}
	if n := reloads.Load(); n != 1 {
		t.Errorf("reload hook ran %d times, want exactly 1", n)
	}
}

func TestPprofGating(t *testing.T) {
	for _, pprof := range []bool{false, true} {
		_, c, _ := newTestDaemon(t, pprof)
		want := http.StatusNotFound
		if pprof {
			want = http.StatusOK
		}
		if code, _ := get(t, c.BaseURL+"/debug/pprof/heap"); code != want {
			t.Errorf("pprof=%v: /debug/pprof/heap = %d, want %d", pprof, code, want)
		}
	}
}

func TestIndexAndUnknownPath(t *testing.T) {
	_, c, _ := newTestDaemon(t, false)
	if code, body := get(t, c.BaseURL+"/"); code != http.StatusOK || body != index {
		t.Errorf("GET / = %d %q", code, body)
	}

	resp, err := http.Get(c.BaseURL + "/no/such/path")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound || env.Error != "no such endpoint" ||
		resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("unknown path = %d %q %+v", resp.StatusCode, resp.Header.Get("Content-Type"), env)
	}

	err = c.Do(context.Background(), http.MethodGet, "/no/such/path", nil, nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound ||
		err.Error() != "testd: no such endpoint (HTTP 404)" {
		t.Errorf("client error = %v", err)
	}
}

// TestFirehoseFilter checks the tenant scoping of GET /api/v1/events:
// a non-admin tenant sees only its own events, an admin everything.
func TestFirehoseFilter(t *testing.T) {
	d, _, _ := newTestDaemon(t, false)
	scoped := func(token string) func(telemetry.BusEvent) bool {
		tn, err := d.reg.Authenticate(token)
		if err != nil {
			t.Fatal(err)
		}
		r := httptest.NewRequest(http.MethodGet, "/api/v1/events", nil)
		return tenantEventFilter(d.reg, r.WithContext(tenant.NewContext(r.Context(), tn)))
	}
	if f := scoped(adminToken); f != nil {
		t.Error("admin firehose is filtered")
	}
	f := scoped(aliceToken)
	if f == nil || !f(telemetry.BusEvent{Tenant: "alice"}) || f(telemetry.BusEvent{Tenant: "ops"}) ||
		f(telemetry.BusEvent{}) {
		t.Error("alice's firehose is not scoped to alice's events")
	}
}
