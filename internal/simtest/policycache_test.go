package simtest

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"github.com/tieredmem/mtat/internal/core"
	"github.com/tieredmem/mtat/internal/dist"
	"github.com/tieredmem/mtat/internal/loadgen"
	"github.com/tieredmem/mtat/internal/sim"
)

var untrainedSeeds atomic.Int64

// untrainedSeed returns a seed no earlier test (or -count rerun) in this
// process has trained an agent for.
func untrainedSeed() int64 { return 1700 + untrainedSeeds.Add(1)*1000 }

// freshMTAT trains spec's agent the way sim.NewPolicy does (the Figure 7
// ramp at sim.TrainTickSeconds) but outside the trained-policy cache.
func freshMTAT(t *testing.T, spec sim.RunSpec, scn sim.Scenario) *core.MTAT {
	t.Helper()
	cfg, err := sim.MTATConfigFor(scn)
	if err != nil {
		t.Fatal(err)
	}
	variant := core.VariantFull
	if spec.PolicyName() == "mtat-lconly" {
		variant = core.VariantLCOnly
	}
	m, err := core.New(variant, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trainScn := scn
	trainScn.Load = loadgen.Fig7()
	trainScn.DurationSeconds = 0
	trainScn.TickSeconds = sim.TrainTickSeconds
	if err := sim.PretrainMTAT(m, trainScn, spec.Episodes); err != nil {
		t.Fatal(err)
	}
	return m
}

// agentRun is an MTAT agent's saved weights and the fingerprint of a run
// under it.
func agentRun(t *testing.T, m *core.MTAT, scn sim.Scenario) ([]byte, string) {
	t.Helper()
	agent, err := m.SaveAgent()
	if err != nil {
		t.Fatal(err)
	}
	run, err := runPolicy(context.Background(), scn, m)
	if err != nil {
		t.Fatal(err)
	}
	return agent, run.Fingerprint()
}

// TestPolicyCacheHitEqualsFresh proves a cached agent is the agent a
// fresh training produces: NewPolicy's miss and its hit on the same key
// both match a training outside the cache, in saved weights and in the
// fingerprint of the run they drive.
func TestPolicyCacheHitEqualsFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("mtat training is slow; run without -short")
	}
	for _, pol := range []string{"mtat-full", "mtat-lconly"} {
		t.Run(pol, func(t *testing.T) {
			spec := sim.RunSpec{
				LC: "redis", BEs: []string{"sssp", "pr"}, Policy: pol,
				Load:  &sim.LoadSpec{Kind: "steps", Fracs: []float64{0.4, 1.0, 0.6}, StepSeconds: 10},
				Scale: 16, Seed: untrainedSeed(), Episodes: 2,
			}
			scn, err := spec.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			wantAgent, wantFP := agentRun(t, freshMTAT(t, spec, scn), scn)
			for _, want := range []struct {
				name         string
				hits, misses uint64
			}{{"miss", 0, 1}, {"hit", 1, 0}} {
				hits0, misses0 := sim.PolicyCacheStats()
				p, err := sim.NewPolicy(context.Background(), pol, scn, spec.Episodes)
				if err != nil {
					t.Fatal(err)
				}
				hits, misses := sim.PolicyCacheStats()
				if hits-hits0 != want.hits || misses-misses0 != want.misses {
					t.Fatalf("NewPolicy: %d hits and %d misses, want one %s",
						hits-hits0, misses-misses0, want.name)
				}
				agent, fp := agentRun(t, p.(*core.MTAT), scn)
				if !bytes.Equal(agent, wantAgent) {
					t.Errorf("cache %s: saved agent differs from a fresh training's", want.name)
				}
				if fp != wantFP {
					t.Errorf("cache %s: run fingerprint %s, fresh training's %s", want.name, fp, wantFP)
				}
			}
		})
	}
}

// TestPolicyCacheRunCellsMatchesSerial: same-key cells on parallel
// workers give the results of a serial run byte for byte, and leave the
// agent cached, so the serial run trains nothing. The cells differ only
// in what the run alone reads (load, length, tick), which NewPolicy keeps
// out of the training key. Parallel first calls with one key may each
// train; the cache holds no single-flight.
func TestPolicyCacheRunCellsMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("mtat training is slow; run without -short")
	}
	base := sim.RunSpec{
		LC: "redis", BEs: []string{"sssp", "pr"}, Policy: "mtat-full",
		Scale: 16, Seed: untrainedSeed(), Episodes: 2,
	}
	loads := []*sim.LoadSpec{
		{Kind: "fig7"},
		{Kind: "constant", Frac: 0.7, DurationSeconds: 40},
		{Kind: "steps", Fracs: []float64{0.3, 0.9}, StepSeconds: 15},
		{Kind: "diurnal", Low: 0.2, High: 1.0, PeriodSeconds: 30, Cycles: 1},
	}
	cells := make([]sim.Cell, len(loads))
	for i, load := range loads {
		spec := base
		spec.Load = load
		spec.TickSeconds = []float64{0.1, 0.1, 0.05, 0.2}[i]
		cells[i] = sim.Cell{Index: i, Label: load.Kind, Spec: spec}
	}

	hits0, misses0 := sim.PolicyCacheStats()
	par := sim.RunCells(context.Background(), cells, 4, false)
	hits, misses := sim.PolicyCacheStats()
	if misses-misses0 < 1 || hits-hits0+misses-misses0 != 4 {
		t.Errorf("4 same-key cells on 4 workers: %d trainings and %d cache hits, want at least 1 training and 4 calls",
			misses-misses0, hits-hits0)
	}
	ser := sim.RunCells(context.Background(), cells, 1, false)
	if h, m := sim.PolicyCacheStats(); m != misses || h-hits != 4 {
		t.Errorf("serial rerun of cached cells: %d trainings and %d cache hits, want 0 and 4", m-misses, h-hits)
	}
	for i := range cells {
		if par[i].Err != nil || ser[i].Err != nil {
			t.Fatalf("cell %s: parallel err %v, serial err %v", cells[i].Label, par[i].Err, ser[i].Err)
		}
		if p, s := ResultFingerprint(par[i].Result), ResultFingerprint(ser[i].Result); p != s {
			t.Errorf("cell %s: workers=4 fingerprint %s, workers=1 %s", cells[i].Label, p, s)
		}
	}
}

// TestSharedZipfRunCellsParallel: cells on parallel workers share the
// immutable Zipf tables dist.NewZipf hands out, while other goroutines
// build and evict tables, yet every cell's result equals its serial run
// byte for byte. Under go test -race it is also the data-race check of
// the shared tables.
func TestSharedZipfRunCellsParallel(t *testing.T) {
	var cells []sim.Cell
	for i, pol := range []string{"memtis", "tpp", "vtmm", "memtis-region"} {
		cells = append(cells, sim.Cell{Index: i, Label: pol, Spec: sim.RunSpec{
			LC: "redis", BEs: []string{"sssp", "pr", "bfs"}, Policy: pol,
			Load:  &sim.LoadSpec{Kind: "constant", Frac: 0.6, DurationSeconds: 8},
			Scale: 16, Seed: 3,
		}})
	}
	stop := make(chan struct{})
	churned := make(chan int)
	go func() { // churn the table cache while the cells run
		n := 0
		for {
			select {
			case <-stop:
				churned <- n
				return
			default:
			}
			if _, err := dist.NewZipf(100+n%97, 0.7); err != nil {
				t.Error(err)
			}
			n++
		}
	}()
	par := sim.RunCells(context.Background(), cells, 2, false)
	close(stop)
	if n := <-churned; n == 0 {
		t.Error("the cache churn made no calls")
	}
	ser := sim.RunCells(context.Background(), cells, 1, false)
	for i := range cells {
		if par[i].Err != nil || ser[i].Err != nil {
			t.Fatalf("cell %s: parallel err %v, serial err %v", cells[i].Label, par[i].Err, ser[i].Err)
		}
		if p, s := ResultFingerprint(par[i].Result), ResultFingerprint(ser[i].Result); p != s {
			t.Errorf("cell %s: workers=2 fingerprint %s, workers=1 %s", cells[i].Label, p, s)
		}
	}
}
