package simtest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tieredmem/mtat/internal/dist"
	"github.com/tieredmem/mtat/internal/hypothesis"
	"github.com/tieredmem/mtat/internal/mem"
	"github.com/tieredmem/mtat/internal/rng"
	"github.com/tieredmem/mtat/internal/sim"
)

// assertEquivalent runs spec through both cores and fails with the named
// divergences if they differ.
func assertEquivalent(t *testing.T, spec sim.RunSpec) {
	t.Helper()
	ref, fast, err := RunBoth(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rf, ff := ref.Fingerprint(), fast.Fingerprint(); rf != ff {
		t.Errorf("fast core diverges from reference core:\n  %s",
			strings.Join(Diff(ref, fast), "\n  "))
	}
}

// TestDifferentialGrid sweeps every non-RL policy over a grid of small
// scenarios — LC+BE, LC-only, BE-only, two seeds, two load shapes —
// through both cores.
func TestDifferentialGrid(t *testing.T) {
	policies := []string{"fmem-all", "smem-all", "memtis", "tpp", "vtmm", "heuristic", "memtis-region"}
	shortLoad := &sim.LoadSpec{Kind: "steps", Fracs: []float64{0.3, 0.9, 0.5}, StepSeconds: 8}
	for _, pol := range policies {
		for _, seed := range []int64{1, 7} {
			spec := sim.RunSpec{
				LC:     "redis",
				BEs:    []string{"sssp", "pr"},
				Policy: pol,
				Load:   shortLoad,
				Scale:  32,
				Seed:   seed,
			}
			t.Run(fmt.Sprintf("%s/seed%d", pol, seed), func(t *testing.T) {
				t.Parallel()
				assertEquivalent(t, spec)
			})
		}
	}
	t.Run("lc-only", func(t *testing.T) {
		t.Parallel()
		assertEquivalent(t, sim.RunSpec{
			LC: "memcached", BEs: []string{}, Policy: "memtis",
			Load: shortLoad, Scale: 32, Seed: 3,
		})
	})
	t.Run("be-only", func(t *testing.T) {
		t.Parallel()
		assertEquivalent(t, sim.RunSpec{
			BEs: []string{"sssp", "bfs"}, Policy: "memtis",
			Scale: 32, Seed: 3, DurationSeconds: 30,
		})
	})
}

// TestDifferentialMTAT runs the RL policy (training included — the
// pretraining episodes execute on the same core as the run) through both
// cores on a scaled-down scenario.
func TestDifferentialMTAT(t *testing.T) {
	if testing.Short() {
		t.Skip("mtat training is slow; run without -short")
	}
	assertEquivalent(t, sim.RunSpec{
		LC:     "redis",
		BEs:    []string{"sssp", "pr"},
		Policy: "mtat-full",
		Load:   &sim.LoadSpec{Kind: "steps", Fracs: []float64{0.4, 1.0, 0.6}, StepSeconds: 10},
		Scale:  32,
		Seed:   5,
		// Short in-process training budget: enough to exercise the RL
		// tick path on both cores, not enough to converge.
		Episodes: 2,
	})
}

// hypothesisArmSpecs expands the committed hypotheses/ specs into their
// per-arm, per-seed RunSpecs. By default only each spec's first seed runs
// (the full seed set is minutes of simulation); the core-equivalence CI
// job sets MTAT_FULL_EQUIVALENCE=1 to cover every committed seed.
func hypothesisArmSpecs(t *testing.T) map[string]sim.RunSpec {
	t.Helper()
	paths, err := filepath.Glob("../../hypotheses/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed hypotheses/ specs found")
	}
	full := os.Getenv("MTAT_FULL_EQUIVALENCE") != ""
	specs := make(map[string]sim.RunSpec)
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := hypothesis.ParseExperimentSpec(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		seeds := exp.Seeds
		if !full && len(seeds) > 1 {
			seeds = seeds[:1]
		}
		for arm, armSpec := range map[string]sim.RunSpec{
			"baseline":  exp.BaselineSpec(),
			"candidate": exp.CandidateSpec(),
		} {
			for _, seed := range seeds {
				s := armSpec
				s.Seed = seed
				specs[fmt.Sprintf("%s/%s/seed%d", exp.Name, arm, seed)] = s
			}
		}
	}
	return specs
}

// TestDifferentialHypothesesSpecs proves fast ≡ reference for the
// committed hypotheses/ experiment arms — the workloads the repo actually
// publishes findings about.
func TestDifferentialHypothesesSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment arms are slow; run without -short")
	}
	for name, spec := range hypothesisArmSpecs(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			assertEquivalent(t, spec)
		})
	}
}

// TestReferenceCoreUsesSeedPaths sanity-checks the reference switch is
// actually plumbed: a reference run must report nonzero allocations from
// the per-tick map rebuilds that the fast core eliminated. (If the switch
// silently stopped reaching the sampler, the differential tests would be
// comparing the fast core against itself.)
func TestReferenceCoreUsesSeedPaths(t *testing.T) {
	spec := sim.RunSpec{
		LC: "redis", BEs: []string{"sssp"}, Policy: "memtis",
		Load:  &sim.LoadSpec{Kind: "constant", Frac: 0.5, DurationSeconds: 10},
		Scale: 32, Seed: 1,
	}
	ref, fast, err := RunBoth(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Result.Core == nil || fast.Result.Core == nil {
		t.Fatal("missing CoreStats")
	}
	// Not a strict bound — allocation counts are process-global — but a
	// reference run doing *fewer* mallocs than the fast run would mean
	// the switch is dead.
	if ref.Result.Core.Mallocs < fast.Result.Core.Mallocs {
		t.Errorf("reference run allocated less than fast run (%d < %d); is ReferenceCore plumbed?",
			ref.Result.Core.Mallocs, fast.Result.Core.Mallocs)
	}
}

// TestReferenceCoreReachesFullZipfSearch checks that ReferenceCore draws
// every PEBS sample through the full binary search over the Zipf CDF, the
// oracle for the guide-table search, and that the fast core never does.
// The only Zipf in this scenario is a Mixture component (bfs), so the
// check also covers the Mixture route. It must not run in parallel: the
// search counter is process-wide.
func TestReferenceCoreReachesFullZipfSearch(t *testing.T) {
	spec := sim.RunSpec{
		LC: "redis", BEs: []string{"bfs"}, Policy: "memtis",
		Load:  &sim.LoadSpec{Kind: "constant", Frac: 0.5, DurationSeconds: 5},
		Scale: 32, Seed: 1,
	}
	before := dist.ReferenceSearches()
	if _, err := RunSpec(context.Background(), spec, true); err != nil {
		t.Fatal(err)
	}
	mid := dist.ReferenceSearches()
	if mid == before {
		t.Error("reference run made no full Zipf searches; is ReferenceCore plumbed to the sampler's draws?")
	}
	if _, err := RunSpec(context.Background(), spec, false); err != nil {
		t.Fatal(err)
	}
	if n := dist.ReferenceSearches() - mid; n != 0 {
		t.Errorf("fast run made %d full Zipf searches, want 0", n)
	}
}

// TestReferenceCoreReachesStdlibSource checks that ReferenceCore draws the
// PEBS samples and the queue model's Monte Carlo draws from math/rand's
// own generator, the oracle for the inlinable copy in internal/rng, and
// that the fast core never does. A BE-only run has no queue, so its count
// proves the sampler's draws alone: at least one per sample. An LC run
// adds at least two per Monte Carlo draw (the arrival position and the
// service time). It must not run in parallel: the draw counter is
// process-wide.
func TestReferenceCoreReachesStdlibSource(t *testing.T) {
	load := &sim.LoadSpec{Kind: "constant", Frac: 0.5, DurationSeconds: 5}
	for _, spec := range []sim.RunSpec{
		{BEs: []string{"bfs", "xsbench"}, Policy: "memtis", Scale: 32, Seed: 1, DurationSeconds: 5},
		{LC: "redis", BEs: []string{"bfs"}, Policy: "memtis", Load: load, Scale: 32, Seed: 1},
	} {
		before := rng.ReferenceDraws()
		run, err := RunSpec(context.Background(), spec, true)
		if err != nil {
			t.Fatal(err)
		}
		mid := rng.ReferenceDraws()
		core := run.Result.Core
		if want := uint64(core.PEBSSamples + 2*core.QueueDraws); mid-before < want {
			t.Errorf("LC %q: reference run drew %d values from math/rand, want >= %d (%d samples, %d queue draws); is ReferenceCore plumbed to the sampler and the queue?",
				spec.LC, mid-before, want, core.PEBSSamples, core.QueueDraws)
		}
		if _, err := RunSpec(context.Background(), spec, false); err != nil {
			t.Fatal(err)
		}
		if n := rng.ReferenceDraws() - mid; n != 0 {
			t.Errorf("LC %q: fast run drew %d values from math/rand, want 0", spec.LC, n)
		}
	}
}

// TestReferenceCoreReachesNaiveRanking checks that ReferenceCore answers
// every hotness-ranked page selection through the per-call histogram
// rebuild, the oracle for the hotness index, and that the fast core never
// does. It must not run in parallel: the rebuild counter is process-wide.
func TestReferenceCoreReachesNaiveRanking(t *testing.T) {
	spec := sim.RunSpec{
		LC: "redis", BEs: []string{"sssp"}, Policy: "memtis",
		Load:  &sim.LoadSpec{Kind: "constant", Frac: 0.5, DurationSeconds: 5},
		Scale: 32, Seed: 1,
	}
	before := mem.NaiveRankings()
	if _, err := RunSpec(context.Background(), spec, true); err != nil {
		t.Fatal(err)
	}
	mid := mem.NaiveRankings()
	if mid == before {
		t.Error("reference run made no naive rankings; is ReferenceCore plumbed to the memory system's queries?")
	}
	if _, err := RunSpec(context.Background(), spec, false); err != nil {
		t.Fatal(err)
	}
	if n := mem.NaiveRankings() - mid; n != 0 {
		t.Errorf("fast run made %d naive rankings, want 0", n)
	}
}
