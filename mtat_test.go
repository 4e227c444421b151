package mtat_test

import (
	"testing"

	"github.com/tieredmem/mtat"
)

func quickScenario(t *testing.T) mtat.Scenario {
	t.Helper()
	scn, err := mtat.NewScenario(mtat.ScenarioOpts{
		LC:    "redis",
		BEs:   []string{"sssp", "pr"},
		Scale: 16,
		Seed:  11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

func TestPublicAPIScenarioAndBaselines(t *testing.T) {
	scn := quickScenario(t)
	for _, pol := range []mtat.Policy{
		mtat.NewMEMTIS(), mtat.NewTPP(), mtat.NewFMemAll(), mtat.NewSMemAll(),
	} {
		res, err := mtat.Run(scn, pol)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if res.Ticks == 0 || res.LCRequests == 0 {
			t.Errorf("%s produced an empty result", pol.Name())
		}
	}
}

func TestPublicAPIUnknownWorkloads(t *testing.T) {
	if _, err := mtat.NewScenario(mtat.ScenarioOpts{LC: "nope"}); err == nil {
		t.Error("unknown LC accepted")
	}
	if _, err := mtat.NewScenario(mtat.ScenarioOpts{LC: "redis", BEs: []string{"nope"}}); err == nil {
		t.Error("unknown BE accepted")
	}
}

func TestPublicAPIMTATLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping MTAT training in -short mode")
	}
	scn := quickScenario(t)
	cfg, err := mtat.MTATConfigFor(scn)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mtat.NewMTAT(mtat.VariantFull, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Short training: enough to exercise the full lifecycle, not enough
	// to guarantee paper-grade behavior (integration tests in
	// internal/sim cover that).
	trainScn := scn
	trainScn.TickSeconds = mtat.TrainTickSeconds
	if err := mtat.Pretrain(m, trainScn, 4); err != nil {
		t.Fatal(err)
	}
	m.ResetEpisode()
	res, err := mtat.Run(scn, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "MTAT (Full)" {
		t.Errorf("policy name = %q", res.Policy)
	}
	// Agent round-trips through the save/load API.
	weights, err := m.SaveAgent()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := mtat.NewMTAT(mtat.VariantFull, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.LoadAgent(weights); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIProfilesAndPatterns(t *testing.T) {
	if got := len(mtat.LCProfiles()); got != 4 {
		t.Errorf("LCProfiles = %d entries, want 4", got)
	}
	if got := len(mtat.BEProfiles(4)); got != 4 {
		t.Errorf("BEProfiles = %d entries, want 4", got)
	}
	if p := mtat.Fig7Load(); p.Duration() != 240 {
		t.Errorf("Fig7Load duration = %g, want 240", p.Duration())
	}
	if _, err := mtat.ConstantLoad(-1, 10); err == nil {
		t.Error("negative constant load accepted")
	}
	if _, err := mtat.StepLoad(nil, 10); err == nil {
		t.Error("empty step load accepted")
	}
	if _, err := mtat.MTATConfigFor(mtat.Scenario{}); err == nil {
		t.Error("MTATConfigFor without LC accepted")
	}
}

func TestPublicAPIExperimentRegistry(t *testing.T) {
	all := mtat.Experiments()
	if len(all) < 12 {
		t.Fatalf("only %d experiments registered", len(all))
	}
	wanted := []string{"table1", "table2", "fig1", "fig2", "fig5", "fig6",
		"fig7", "fig8", "fig9", "table3", "table4", "overhead", "ablation"}
	for _, id := range wanted {
		if _, ok := mtat.ExperimentByID(id); !ok {
			t.Errorf("experiment %q missing", id)
		}
	}
	if _, ok := mtat.ExperimentByID("nope"); ok {
		t.Error("unknown experiment found")
	}
	if _, err := mtat.NewExperimentSuite(mtat.QuickExperiments()); err != nil {
		t.Errorf("quick suite rejected: %v", err)
	}
	bad := mtat.DefaultExperiments()
	bad.Scale = 0
	if _, err := mtat.NewExperimentSuite(bad); err == nil {
		t.Error("invalid suite config accepted")
	}
}

func TestPublicAPIExtensionPolicies(t *testing.T) {
	scn := quickScenario(t)
	for _, pol := range []mtat.Policy{
		mtat.NewVTMM(), mtat.NewHeuristic(), mtat.NewRegionMEMTIS(),
	} {
		res, err := mtat.Run(scn, pol)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if res.Ticks == 0 {
			t.Errorf("%s produced an empty result", pol.Name())
		}
	}
}

func TestPublicAPIExtensionPatterns(t *testing.T) {
	if _, err := mtat.TraceLoad([]float64{0, 10}, []float64{0.2, 0.8}); err != nil {
		t.Errorf("TraceLoad: %v", err)
	}
	if _, err := mtat.DiurnalLoad(0.2, 1.0, 100, 2); err != nil {
		t.Errorf("DiurnalLoad: %v", err)
	}
	if _, err := mtat.BurstLoad(0.2, 1.0, 60, 10, 180); err != nil {
		t.Errorf("BurstLoad: %v", err)
	}
	if _, err := mtat.BurstLoad(1.0, 0.2, 60, 10, 180); err == nil {
		t.Error("invalid burst accepted")
	}
}
