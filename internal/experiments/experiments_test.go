package experiments

import (
	"bufio"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/tieredmem/mtat/internal/core"
	"github.com/tieredmem/mtat/internal/sim"
)

var update = flag.Bool("update", false, "re-pin "+suiteGoldenPath)

// suiteGoldenPath pins TestAllExperimentsRunTiny's report and CSVs.
const suiteGoldenPath = "testdata/suite_tiny.golden"

// tinySuite returns a suite small enough for unit tests: 1/16 scale, very
// short training, shallow searches.
func tinySuite(t *testing.T) *Suite {
	t.Helper()
	cfg := Quick()
	cfg.Episodes = 2 // lifecycle only; behavior is covered in internal/sim
	cfg.ProbeIters = 2
	cfg.ProbeSeconds = 20
	cfg.ProbeWarmup = 8
	cfg.OutDir = t.TempDir()
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	base := Default()
	if err := base.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := Quick().Validate(); err != nil {
		t.Fatalf("quick config invalid: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero scale", func(c *Config) { c.Scale = 0 }},
		{"zero episodes", func(c *Config) { c.Episodes = 0 }},
		{"no lc", func(c *Config) { c.LCNames = nil }},
		{"no be", func(c *Config) { c.BENames = nil }},
		{"zero probe iters", func(c *Config) { c.ProbeIters = 0 }},
		{"warmup beyond probe", func(c *Config) { c.ProbeWarmup = c.ProbeSeconds }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			c := base
			m.mut(&c)
			if err := c.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
			if _, err := NewSuite(c); err == nil {
				t.Error("NewSuite accepted invalid config")
			}
		})
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if ids[e.ID] {
			t.Errorf("duplicate experiment ID %q", e.ID)
		}
		ids[e.ID] = true
		got, ok := ByID(e.ID)
		if !ok || got.ID != e.ID {
			t.Errorf("ByID(%q) failed", e.ID)
		}
	}
	for _, want := range []string{"table1", "table2", "table3", "table4",
		"fig1", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "overhead"} {
		if !ids[want] {
			t.Errorf("experiment %q missing from registry", want)
		}
	}
	if _, ok := ByID("bogus"); ok {
		t.Error("ByID(bogus) succeeded")
	}
}

func TestCheapExperimentsRun(t *testing.T) {
	s := tinySuite(t)
	for _, id := range []string{"table1", "table2", "fig1", "fig7"} {
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatal("experiment missing")
			}
			var sb strings.Builder
			if err := e.Run(s, &sb); err != nil {
				t.Fatalf("run: %v", err)
			}
			if sb.Len() == 0 {
				t.Error("experiment produced no output")
			}
		})
	}
}

func TestTable1OutputShape(t *testing.T) {
	s := tinySuite(t)
	var sb strings.Builder
	if err := runTable1(s, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{"redis", "memcached", "mongodb", "silo"} {
		if !strings.Contains(out, name) {
			t.Errorf("table1 output missing %q", name)
		}
	}
}

func TestFig2Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping simulation-backed experiment in -short mode")
	}
	s := tinySuite(t)
	var sb strings.Builder
	if err := runFig2(s, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "FMem 25%") {
		t.Errorf("fig2 output missing load steps:\n%s", out)
	}
	// The §2.2 phenomenon: residency collapses under MEMTIS.
	if !strings.Contains(out, "residency at t=30s") {
		t.Errorf("fig2 output missing residency line:\n%s", out)
	}
}

func TestFig1MaxLoadsMonotone(t *testing.T) {
	s := tinySuite(t)
	_, _, maxLoads, err := fig1LC(s, "redis")
	if err != nil {
		t.Fatal(err)
	}
	if len(maxLoads) != len(fig1Ratios) {
		t.Fatalf("got %d levels, want %d", len(maxLoads), len(fig1Ratios))
	}
	for i := 1; i < len(maxLoads); i++ {
		if maxLoads[i] < maxLoads[i-1] {
			t.Errorf("max load not monotone in FMem ratio: %v", maxLoads)
		}
	}
	if _, _, _, err := fig1LC(s, "bogus"); err == nil {
		t.Error("unknown LC accepted")
	}
}

// TestTrainedAgentCaching checks that the suite's own training path (the
// experiments that train on inputs of their own) trains an agent once:
// a second call with the same inputs is a trained-policy cache hit.
func TestTrainedAgentCaching(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping training in -short mode")
	}
	s := tinySuite(t)
	scn, err := s.scenario("redis", 0, 0, []string{"sssp"})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sim.MTATConfigFor(scn)
	if err != nil {
		t.Fatal(err)
	}
	_, before := sim.PolicyCacheStats()
	if _, err := s.train(core.VariantLCOnly, cfg, scn, "cache-test"); err != nil {
		t.Fatal(err)
	}
	_, first := sim.PolicyCacheStats()
	if first-before > 1 {
		t.Fatalf("one train call missed the cache %d times", first-before)
	}
	if _, err := s.train(core.VariantLCOnly, cfg, scn, "cache-test"); err != nil {
		t.Fatal(err)
	}
	if _, second := sim.PolicyCacheStats(); second != first {
		t.Error("second train call retrained instead of using the cache")
	}
}

// TestFig5AgentSharedWithNewPolicy checks that the suite's Figure 5 agent
// is the one sim.NewPolicy serves for the same co-location described as
// a run spec: after Figure 5 has run, building mtat-full for that spec
// is a cache hit and trains nothing.
func TestFig5AgentSharedWithNewPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping training in -short mode")
	}
	s := tinySuite(t)
	if _, err := s.fig5Results("redis"); err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	spec := sim.RunSpec{LC: "redis", BEs: cfg.BENames, Policy: "mtat-full", Scale: cfg.Scale, Seed: cfg.Seed}
	scn, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := sim.PolicyCacheStats()
	if _, err := sim.NewPolicy(context.Background(), spec.Policy, scn, cfg.Episodes); err != nil {
		t.Fatal(err)
	}
	gotHits, gotMisses := sim.PolicyCacheStats()
	if gotHits != hits+1 || gotMisses != misses {
		t.Errorf("NewPolicy after fig5: %d hits, %d misses, want 1 hit, 0 misses",
			gotHits-hits, gotMisses-misses)
	}
}

func TestWriteCSVDisabled(t *testing.T) {
	cfg := Quick()
	cfg.OutDir = ""
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	called := false
	err = s.writeCSV("x.csv", func(io.Writer) error { called = true; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("render called with OutDir disabled")
	}
}

func TestSafeRatioAndClamp(t *testing.T) {
	if got := safeRatio(4, 2); got != 2 {
		t.Errorf("safeRatio = %g", got)
	}
	if got := safeRatio(4, 0); got != 0 {
		t.Errorf("safeRatio by zero = %g", got)
	}
	if clamp01(-1) != 0 || clamp01(2) != 1 || clamp01(0.5) != 0.5 {
		t.Error("clamp01 wrong")
	}
}

// TestAllExperimentsRunTiny executes the entire registry end-to-end at a
// minimal configuration (2 training episodes, shallow searches) and
// compares the report, plus a digest of every CSV, against
// testdata/suite_tiny.golden. It verifies plumbing, caching and CSV
// generation, and pins the numbers so that a refactor of the suite
// cannot move them unnoticed; the behavioral assertions live in
// internal/sim and the headline numbers come from cmd/mtatbench at real
// configurations. After an intended change in output, re-pin with:
//
//	go test ./internal/experiments -run TestAllExperimentsRunTiny -update
func TestAllExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full-registry run in -short mode")
	}
	s := tinySuite(t)
	var sb strings.Builder
	if err := RunAll(s, &sb); err != nil {
		t.Fatalf("RunAll: %v\noutput so far:\n%s", err, sb.String())
	}
	out := sb.String()
	for _, e := range All() {
		if !strings.Contains(out, "==== "+e.ID+":") {
			t.Errorf("output missing experiment %q", e.ID)
		}
	}

	got, err := suiteGolden(out, s.Config().OutDir)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(suiteGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(suiteGoldenPath)
	if err != nil {
		t.Fatalf("read golden (re-pin with -update): %v", err)
	}
	if got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("suite output differs from %s at line %d:\n got: %q\nwant: %q\n(intended change? re-pin with -update)",
					suiteGoldenPath, i+1, g, w)
			}
		}
	}
}

// suiteGolden renders a RunAll report and the CSVs in outDir as the
// golden text: the report with overhead's wall-clock lines masked, then
// one SHA-256 per CSV file.
func suiteGolden(report, outDir string) (string, error) {
	wallClock := []string{"PP-M compute total:", "PP-M CPU share of 1 core:"}
	var b strings.Builder
	sc := bufio.NewScanner(strings.NewReader(report))
	for sc.Scan() {
		line := sc.Text()
		for _, prefix := range wallClock {
			if strings.HasPrefix(line, prefix) {
				line = prefix + " <wall clock>"
			}
		}
		b.WriteString(line + "\n")
	}
	paths, err := filepath.Glob(filepath.Join(outDir, "*.csv"))
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	b.WriteString("==== CSV SHA-256 ====\n")
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%x  %s\n", sha256.Sum256(data), filepath.Base(p))
	}
	return b.String(), nil
}
