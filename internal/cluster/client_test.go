package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/tieredmem/mtat/internal/daemonkit"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/telemetry"
	"github.com/tieredmem/mtat/internal/tenant"
)

// TestClientQuota429RetryAfter submits sweeps past a tenant's rate and
// queued quotas through cluster.Client: the fleet's 429 must surface
// with its Retry-After hint, as it does on mtatd.
func TestClientQuota429RetryAfter(t *testing.T) {
	spec := func(seeds ...int64) sim.SweepSpec {
		return sim.SweepSpec{
			Base:  sim.RunSpec{LC: "redis", BEs: []string{"sssp"}, Scale: 16, DurationSeconds: 2, TickSeconds: 0.1},
			Seeds: seeds,
		}
	}
	for _, tc := range []struct {
		name     string
		quota    tenant.Quota
		admitted []sim.SweepSpec
		rejected sim.SweepSpec
	}{
		{"rate", tenant.Quota{RatePerSec: 0.01, Burst: 1}, []sim.SweepSpec{spec(1)}, spec(2)},
		{"queued", tenant.Quota{MaxQueued: 1}, nil, spec(1, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tel := telemetry.New()
			reg, err := tenant.New(&tenant.Config{Tenants: []tenant.Spec{
				{Name: "capped", Token: "tok", Quota: tc.quota},
			}}, tel)
			if err != nil {
				t.Fatal(err)
			}
			f := newTestFleetCfg(t, FleetConfig{Telemetry: tel, Tenants: reg})
			srv := httptest.NewServer(NewHandler(f, tel, false))
			t.Cleanup(srv.Close)
			c := NewClient(srv.URL)
			c.Token = "tok"

			ctx := context.Background()
			for _, s := range tc.admitted {
				if _, err := c.SubmitSweep(ctx, s); err != nil {
					t.Fatal(err)
				}
			}
			_, err = c.SubmitSweep(ctx, tc.rejected)
			var apiErr *daemonkit.APIError
			if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("over-quota submit = %v, want HTTP 429", err)
			}
			if apiErr.RetryAfter <= 0 {
				t.Errorf("429 lost its Retry-After: %+v", apiErr)
			}
		})
	}
}
