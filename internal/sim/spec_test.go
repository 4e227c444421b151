package sim

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/tieredmem/mtat/internal/core"
	"github.com/tieredmem/mtat/internal/policy"
	"github.com/tieredmem/mtat/internal/workload"
)

func validSpec() RunSpec {
	return RunSpec{
		LC:              "redis",
		BEs:             []string{"sssp", "pr"},
		Policy:          "memtis",
		Load:            &LoadSpec{Kind: "constant", Frac: 0.5, DurationSeconds: 30},
		Scale:           16,
		Seed:            7,
		DurationSeconds: 20,
		TickSeconds:     0.2,
		WarmupSeconds:   1,
		Episodes:        3,
	}
}

func TestRunSpecJSONRoundTrip(t *testing.T) {
	in := validSpec()
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseRunSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
	}
	// The zero spec round-trips to a compact document.
	minimal, err := json.Marshal(RunSpec{LC: "redis"})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"lc":"redis"}`; string(minimal) != want {
		t.Errorf("minimal spec = %s, want %s", minimal, want)
	}
}

func TestParseRunSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseRunSpec([]byte(`{"lc":"redis","polcy":"memtis"}`)); err == nil {
		t.Fatal("typo field accepted")
	}
}

func TestRunSpecValidateNames(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*RunSpec)
		want string // substring of the error
	}{
		{"unknown lc", func(s *RunSpec) { s.LC = "postgres" }, "redis, memcached, mongodb, silo"},
		{"unknown be", func(s *RunSpec) { s.BEs = []string{"sssp", "gemm"} }, "sssp, bfs, pr, xsbench"},
		{"unknown policy", func(s *RunSpec) { s.Policy = "lru" }, "memtis"},
		{"unknown load", func(s *RunSpec) { s.Load = &LoadSpec{Kind: "sawtooth"} }, "fig7, constant, steps, diurnal, bursts"},
		{"mtat needs lc", func(s *RunSpec) { s.LC = ""; s.Policy = "mtat-full" }, "needs an LC workload"},
		{"empty scenario", func(s *RunSpec) { s.LC = ""; s.BEs = []string{} }, "at least one workload"},
		{"negative scale", func(s *RunSpec) { s.Scale = -1 }, "scale"},
		{"negative duration", func(s *RunSpec) { s.DurationSeconds = -5 }, "duration_s"},
		{"negative episodes", func(s *RunSpec) { s.Episodes = -1 }, "episodes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := validSpec()
			tc.mut(&spec)
			err := spec.Validate()
			if err == nil {
				t.Fatalf("invalid spec accepted: %+v", spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := validSpec().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestRunSpecScenario(t *testing.T) {
	spec := validSpec()
	scn, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if !scn.HasLC || scn.LC.Name != "redis" {
		t.Errorf("LC not wired: %+v", scn.LC)
	}
	if len(scn.BEs) != 2 || scn.BEs[0].Name != "sssp" || scn.BEs[1].Name != "pr" {
		t.Errorf("BEs not wired: %+v", scn.BEs)
	}
	if scn.DurationSeconds != 20 || scn.TickSeconds != 0.2 || scn.WarmupSeconds != 1 {
		t.Errorf("timing overrides lost: dur=%g tick=%g warmup=%g",
			scn.DurationSeconds, scn.TickSeconds, scn.WarmupSeconds)
	}
	if scn.Load == nil || scn.Load.Frac(0) != 0.5 {
		t.Errorf("load pattern not wired")
	}
	if scn.Seed != 7 {
		t.Errorf("seed = %d, want 7", scn.Seed)
	}

	// Default load: nil spec load yields the Figure 7 ramp.
	spec.Load = nil
	spec.DurationSeconds = 0
	scn, err = spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if scn.Load == nil {
		t.Fatal("default load missing")
	}
}

func TestLoadSpecKinds(t *testing.T) {
	cases := []LoadSpec{
		{Kind: "fig7"},
		{Kind: "constant", Frac: 0.8, DurationSeconds: 10},
		{Kind: "steps", Fracs: []float64{0.2, 0.8}, StepSeconds: 5},
		{Kind: "diurnal", Low: 0.2, High: 0.9, PeriodSeconds: 60, Cycles: 2},
		{Kind: "bursts", Base: 0.3, Peak: 1.0, PeriodSeconds: 30, BurstSeconds: 5, TotalSeconds: 120},
	}
	for _, ls := range cases {
		p, err := ls.Pattern()
		if err != nil {
			t.Errorf("%s: %v", ls.Kind, err)
			continue
		}
		if p == nil || p.Duration() <= 0 {
			t.Errorf("%s: bad pattern %v", ls.Kind, p)
		}
	}
	// Parameter errors surface from the underlying constructors.
	if _, err := (&LoadSpec{Kind: "diurnal", Low: 0.9, High: 0.2, PeriodSeconds: 60}).Pattern(); err == nil {
		t.Error("inverted diurnal accepted")
	}
}

func TestNewPolicyNames(t *testing.T) {
	scn := testScenario(t, 1)
	for _, name := range PolicyNames() {
		if name == "mtat-full" || name == "mtat-lconly" {
			continue // training is exercised by TestNewPolicyMTAT
		}
		pol, err := NewPolicy(context.Background(), name, scn, 0)
		if err != nil {
			t.Errorf("NewPolicy(%s): %v", name, err)
			continue
		}
		if pol == nil || pol.Name() == "" {
			t.Errorf("NewPolicy(%s): empty policy", name)
		}
	}
	if _, err := NewPolicy(context.Background(), "nope", scn, 0); err == nil ||
		!strings.Contains(err.Error(), "memtis") {
		t.Errorf("unknown policy error should list names, got %v", err)
	}
}

// TestMTATConfigForLCServers pins MTATConfigFor's sizing: the PP-M load
// feature's peak access rate follows the LC core count, and with the
// profile's core count the configuration is exactly the profile-sized
// one, with the BE unit of 256/scale pages (at least 1).
func TestMTATConfigForLCServers(t *testing.T) {
	configFor := func(lc string, servers, scale int) (Scenario, core.PPMConfig) {
		t.Helper()
		scn, err := PaperScenario(PaperScenarioOpts{LCName: lc, LCServers: servers, Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := MTATConfigFor(scn)
		if err != nil {
			t.Fatal(err)
		}
		return scn, cfg
	}

	for _, lc := range workload.LCNames() {
		for scale := 1; scale <= 300; scale++ {
			scn, got := configFor(lc, 0, scale)
			want := core.DefaultPPMConfig(scn.LC.SLOSeconds, scn.LC.MaxLoadRPS*float64(scn.LC.MemTouches))
			want.BEUnitPages = max(256/scale, 1)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s scale %d: MTATConfigFor = %+v, want %+v", lc, scale, got, want)
			}
		}
	}

	prof, _ := workload.LCConfigByName("memcached")
	if prof.Servers != 8 {
		t.Fatalf("memcached profile has %d servers, want 8", prof.Servers)
	}
	_, base := configFor("memcached", 0, 16)
	for _, servers := range []int{4, 16} {
		_, got := configFor("memcached", servers, 16)
		if want := base.MaxLoadAccesses * float64(servers) / 8; got.MaxLoadAccesses != want {
			t.Errorf("memcached on %d cores: MaxLoadAccesses = %g, want %g (%d/8 of %g)",
				servers, got.MaxLoadAccesses, want, servers, base.MaxLoadAccesses)
		}
		if got.BEUnitPages != base.BEUnitPages {
			t.Errorf("memcached on %d cores: BEUnitPages = %d, want %d", servers, got.BEUnitPages, base.BEUnitPages)
		}
	}
}

func TestNewPolicyMTATCancellable(t *testing.T) {
	scn := testScenario(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // training must observe the cancellation immediately
	if _, err := NewPolicy(ctx, "mtat-full", scn, 5); err == nil {
		t.Fatal("cancelled training returned a policy")
	}
}

func TestRunContextCancel(t *testing.T) {
	scn := testScenario(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunScenarioContext(ctx, scn, nil); err == nil {
		t.Fatal("nil policy accepted")
	}
	r, err := NewRunner(scn, policy.NewFMemAll())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunContext(ctx); err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}
