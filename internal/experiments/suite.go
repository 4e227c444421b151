// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): the benchmark characteristics (Tables 1–2), the
// motivation experiments (Figures 1–2), the dynamic co-location runs
// (Figures 5–7), the max-load comparison (Figure 8), the BE fairness and
// SLO-violation studies (Figure 9, Table 4), the settings sweep (Table 3),
// and the overhead measurements (§5.5).
//
// Experiments share a Suite, which caches completed scenario runs so that,
// e.g., Figure 6 reuses Figure 5's runs and Table 4 reuses Figure 9's.
// Trained MTAT agents are shared through sim's trained-policy cache.
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/tieredmem/mtat/internal/core"
	"github.com/tieredmem/mtat/internal/policy"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/workload"
)

// Config scopes an experiment suite.
type Config struct {
	// Scale divides all memory sizes (1 = the paper's geometry). Results
	// are scale-invariant (ratios are preserved); larger scales run
	// faster.
	Scale int
	// Episodes is the number of pre-training episodes per MTAT agent.
	Episodes int
	// TrainTickSeconds is the simulation tick used during pre-training;
	// coarser than the evaluation tick (0.1 s) to cut training cost.
	TrainTickSeconds float64
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
		Scale:            1,
		Episodes:         60,
		TrainTickSeconds: 0.25,
		Seed:             1,
		LCNames:          []string{"redis", "memcached", "mongodb", "silo"},
		BENames:          []string{"sssp", "bfs", "pr", "xsbench"},
		ProbeIters:       7,
		ProbeSeconds:     40,
		ProbeWarmup:      15,
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
	if c.TrainTickSeconds <= 0 {
		return fmt.Errorf("experiments: TrainTickSeconds must be > 0, got %g", c.TrainTickSeconds)
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
	// fig9 caches the constant-load Redis runs: policy -> load -> result.
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

// mtatConfig sizes a PPM configuration for the scenario. The access-count
// normalization accounts for reduced serving capacity when the scenario
// runs the LC workload on fewer cores than its profile (Table 3's sweeps):
// capacity, and therefore the peak access rate, scales with core count.
func (s *Suite) mtatConfig(scn sim.Scenario) core.PPMConfig {
	effMax := scn.LC.MaxLoadRPS * float64(scn.LC.MemTouches)
	if prof, ok := workload.LCConfigByName(scn.LC.Name); ok && prof.Servers > 0 {
		effMax *= float64(scn.LC.Servers) / float64(prof.Servers)
	}
	cfg := core.DefaultPPMConfig(scn.LC.SLOSeconds, effMax)
	cfg.BEUnitPages = 256 / s.cfg.Scale
	if cfg.BEUnitPages < 1 {
		cfg.BEUnitPages = 1
	}
	return cfg
}

// trainedMTAT returns a frozen, evaluation-mode MTAT policy of the given
// variant for scn, trained on the scenario's load pattern; label names
// the agent in the progress log.
func (s *Suite) trainedMTAT(variant core.Variant, scn sim.Scenario, label string) (*core.MTAT, error) {
	return s.train(variant, s.mtatConfig(scn), scn, fmt.Sprintf("%s for %s", variant, label))
}

// train returns a frozen, evaluation-mode MTAT agent of the variant,
// trained with cfg on scn's load pattern at the suite's training tick.
// Agents come from sim's trained-policy cache, so a second call with the
// same training inputs, from any experiment, skips training; only a
// call that trains logs "training <what>".
func (s *Suite) train(variant core.Variant, cfg core.PPMConfig, scn sim.Scenario, what string) (*core.MTAT, error) {
	trainScn := scn
	trainScn.TickSeconds = s.cfg.TrainTickSeconds
	m, trained, err := sim.TrainedMTAT(context.Background(), variant, cfg, trainScn, s.cfg.Episodes)
	if trained {
		s.logf("training %s (%d episodes)...", what, s.cfg.Episodes)
	}
	return m, err
}

// policyList builds a fresh policy instance per name. MTAT variants are
// trained for the given scenario/key.
func (s *Suite) policyList(scn sim.Scenario, key string, names []string) ([]policy.Policy, error) {
	out := make([]policy.Policy, 0, len(names))
	for _, name := range names {
		switch name {
		case "FMEM_ALL":
			out = append(out, policy.NewFMemAll())
		case "SMEM_ALL":
			out = append(out, policy.NewSMemAll())
		case "MEMTIS":
			out = append(out, policy.NewMEMTIS())
		case "TPP":
			out = append(out, policy.NewTPP())
		case "MTAT (Full)":
			m, err := s.trainedMTAT(core.VariantFull, scn, key)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		case "MTAT (LC Only)":
			m, err := s.trainedMTAT(core.VariantLCOnly, scn, key)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		default:
			return nil, fmt.Errorf("experiments: unknown policy %q", name)
		}
	}
	return out, nil
}

// resetPolicy prepares a policy for a fresh run.
func resetPolicy(p policy.Policy) {
	if m, ok := p.(*core.MTAT); ok {
		m.ResetEpisode()
	}
}

// allPolicies is the §5.1 comparison order.
func allPolicies() []string {
	return []string{"FMEM_ALL", "SMEM_ALL", "TPP", "MEMTIS", "MTAT (LC Only)", "MTAT (Full)"}
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
