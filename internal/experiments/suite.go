// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): the benchmark characteristics (Tables 1–2), the
// motivation experiments (Figures 1–2), the dynamic co-location runs
// (Figures 5–7), the max-load comparison (Figure 8), the BE fairness and
// SLO-violation studies (Figure 9, Table 4), the settings sweep (Table 3),
// and the overhead measurements (§5.5).
//
// Experiments build their scenarios with sim.PaperScenario and their
// policies with sim.NewPolicy, by sim.PolicyNames entry; reports label a
// policy by its Name. MTAT agents are sized by sim.MTATConfigFor and
// trained at sim.TrainTickSeconds through sim's trained-policy cache, so
// an agent trained once (e.g. Figure 5's) serves every experiment with
// the same training inputs. Only the experiments that train on a load of
// their own (surge, Table 3) or on a changed configuration (ablation)
// call sim.TrainedMTAT directly. A Suite caches completed scenario runs
// so that, e.g., Figure 6 reuses Figure 5's runs and Table 4 reuses
// Figure 9's.
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/tieredmem/mtat/internal/core"
	"github.com/tieredmem/mtat/internal/loadgen"
	"github.com/tieredmem/mtat/internal/mem"
	"github.com/tieredmem/mtat/internal/policy"
	"github.com/tieredmem/mtat/internal/sim"
)

// Config scopes an experiment suite.
type Config struct {
	// Scale divides all memory sizes (1 = the paper's geometry). Results
	// are scale-invariant (ratios are preserved); larger scales run
	// faster.
	Scale int
	// Episodes is the number of pre-training episodes per MTAT agent.
	Episodes int
	// Seed drives all randomness.
	Seed int64
	// OutDir receives CSV artifacts; empty disables CSV output.
	OutDir string
	// LCNames are the LC workloads to cover where an experiment spans
	// all of Table 1.
	LCNames []string
	// BENames are the co-located BE workloads (Table 2).
	BENames []string
	// ProbeIters is the bisection depth of max-load searches.
	ProbeIters int
	// ProbeSeconds is the duration of one constant-load probe run.
	ProbeSeconds float64
	// ProbeWarmup is the warmup excluded from probe measurements.
	ProbeWarmup float64
	// Table3Settings selects the (LC cores, BE cores, #BE) sweep points.
	Table3Settings []Table3Setting
}

// Table3Setting is one (x, y, z) row of Table 3: x LC cores, y total BE
// cores, z BE workloads.
type Table3Setting struct {
	LCCores int
	BECores int
	NumBE   int
}

// Default returns the full paper-scale configuration.
func Default() Config {
	return Config{
		Scale:        1,
		Episodes:     60,
		Seed:         1,
		LCNames:      []string{"redis", "memcached", "mongodb", "silo"},
		BENames:      []string{"sssp", "bfs", "pr", "xsbench"},
		ProbeIters:   7,
		ProbeSeconds: 40,
		ProbeWarmup:  15,
		Table3Settings: []Table3Setting{
			{4, 20, 2}, {4, 20, 4}, {10, 14, 2}, {10, 14, 4}, {16, 8, 2}, {16, 8, 4},
		},
	}
}

// Quick returns a reduced configuration for benchmarks and smoke runs:
// 1/16-scale memory, fewer training episodes, Redis only, shallower
// searches, and two Table 3 settings.
func Quick() Config {
	cfg := Default()
	cfg.Scale = 16
	cfg.Episodes = 60
	cfg.LCNames = []string{"redis"}
	cfg.ProbeIters = 5
	cfg.ProbeSeconds = 30
	cfg.ProbeWarmup = 12
	cfg.Table3Settings = []Table3Setting{{4, 20, 2}, {16, 8, 4}}
	return cfg
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Scale < 1 {
		return fmt.Errorf("experiments: Scale must be >= 1, got %d", c.Scale)
	}
	if c.Episodes < 1 {
		return fmt.Errorf("experiments: Episodes must be >= 1, got %d", c.Episodes)
	}
	if len(c.LCNames) == 0 {
		return fmt.Errorf("experiments: need at least one LC workload")
	}
	if len(c.BENames) == 0 {
		return fmt.Errorf("experiments: need at least one BE workload")
	}
	if c.ProbeIters < 1 || c.ProbeSeconds <= 0 || c.ProbeWarmup < 0 ||
		c.ProbeWarmup >= c.ProbeSeconds {
		return fmt.Errorf("experiments: invalid probe parameters")
	}
	return nil
}

// Suite carries the configuration plus caches shared across experiments.
type Suite struct {
	cfg Config
	// fig5 caches the dynamic-load runs: lcName -> policy name -> result.
	fig5 map[string]map[string]*sim.Result
	// fig9 caches the constant-load Redis runs: policy name -> load ->
	// result. Policy names are sim.PolicyNames entries.
	fig9 map[string]map[float64]*sim.Result
	// log receives progress lines (nil = quiet).
	log io.Writer
}

// NewSuite returns a suite for cfg.
func NewSuite(cfg Config) (*Suite, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Suite{
		cfg:  cfg,
		fig5: make(map[string]map[string]*sim.Result),
		fig9: make(map[string]map[float64]*sim.Result),
	}, nil
}

// SetLogWriter directs progress lines (training, probing) to w.
func (s *Suite) SetLogWriter(w io.Writer) { s.log = w }

// Config returns the suite configuration.
func (s *Suite) Config() Config { return s.cfg }

func (s *Suite) logf(format string, args ...any) {
	if s.log != nil {
		fmt.Fprintf(s.log, format+"\n", args...)
	}
}

// scenario builds the §5 co-location for one LC workload with the suite's
// BE set.
func (s *Suite) scenario(lcName string, lcServers, beCoresTotal int, beNames []string) (sim.Scenario, error) {
	if beNames == nil {
		beNames = s.cfg.BENames
	}
	return sim.PaperScenario(sim.PaperScenarioOpts{
		LCName:       lcName,
		LCServers:    lcServers,
		BENames:      beNames,
		BECoresTotal: beCoresTotal,
		Scale:        s.cfg.Scale,
		Seed:         s.cfg.Seed,
	})
}

// policies builds a fresh policy per sim.PolicyNames entry for scn. MTAT
// variants come pre-trained, on scn's geometry under the Figure 7 ramp,
// for the suite's episode budget.
func (s *Suite) policies(scn sim.Scenario, names ...string) ([]policy.Policy, error) {
	pols := make([]policy.Policy, len(names))
	for i, name := range names {
		pol, err := sim.NewPolicy(context.Background(), name, scn, s.cfg.Episodes)
		if err != nil {
			return nil, err
		}
		pols[i] = pol
	}
	return pols, nil
}

// train returns a frozen, evaluation-mode MTAT agent of the variant,
// trained with cfg on trainScn's load pattern at sim.TrainTickSeconds,
// for the experiments that train on inputs of their own. Agents come
// from sim's trained-policy cache; only a call that trains logs
// "training <what>".
func (s *Suite) train(variant core.Variant, cfg core.PPMConfig, trainScn sim.Scenario, what string) (*core.MTAT, error) {
	trainScn.TickSeconds = sim.TrainTickSeconds
	m, trained, err := sim.TrainedMTAT(context.Background(), variant, cfg, trainScn, s.cfg.Episodes)
	if trained {
		s.logf("training %s (%d episodes)...", what, s.cfg.Episodes)
	}
	return m, err
}

// resetPolicy prepares a policy for a fresh run.
func resetPolicy(p policy.Policy) {
	if m, ok := p.(*core.MTAT); ok {
		m.ResetEpisode()
	}
}

// constantRun runs pol on scn under a constant load of frac for duration
// seconds, excluding the first warmup seconds from aggregates. The LC
// workload starts in SMem, so the run measures the steady state a policy
// reaches from below, earning its allocation.
func constantRun(scn sim.Scenario, pol policy.Policy, frac, duration, warmup float64) (*sim.Result, error) {
	load, err := loadgen.NewConstant(frac, duration)
	if err != nil {
		return nil, err
	}
	run := scn
	run.Load = load
	run.DurationSeconds = duration
	run.WarmupSeconds = warmup
	run.LCInitialTier = mem.TierSMem
	resetPolicy(pol)
	return sim.RunScenario(run, pol)
}

// allPolicies is the §5.1 comparison order.
func allPolicies() []string {
	return []string{"fmem-all", "smem-all", "tpp", "memtis", "mtat-lconly", "mtat-full"}
}

// writeCSV renders a CSV artifact into OutDir (no-op without OutDir).
func (s *Suite) writeCSV(name string, render func(w io.Writer) error) error {
	if s.cfg.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.OutDir, 0o755); err != nil {
		return fmt.Errorf("experiments: create out dir: %w", err)
	}
	path := filepath.Join(s.cfg.OutDir, name)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("experiments: create %s: %w", path, err)
	}
	if err := render(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("experiments: render %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("experiments: close %s: %w", path, err)
	}
	return nil
}
