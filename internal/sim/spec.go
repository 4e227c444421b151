package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"github.com/tieredmem/mtat/internal/core"
	"github.com/tieredmem/mtat/internal/loadgen"
	"github.com/tieredmem/mtat/internal/policy"
	"github.com/tieredmem/mtat/internal/workload"
)

// RunSpec is the JSON-serializable description of one scenario run — the
// wire format accepted by the mtatd control plane (POST /api/v1/runs) and
// written by mtatctl. It mirrors PaperScenarioOpts plus the policy choice
// and the timing overrides a caller may want per run.
//
// The zero value is not runnable; Validate reports every problem with an
// error that lists the valid choices.
type RunSpec struct {
	// LC names the latency-critical workload (see workload.LCNames).
	// Empty builds a BE-only scenario.
	LC string `json:"lc,omitempty"`
	// LCServers overrides the LC thread count (0 keeps the profile's).
	LCServers int `json:"lc_servers,omitempty"`
	// BEs names the best-effort workloads (see workload.BENames); nil
	// selects all four.
	BEs []string `json:"bes,omitempty"`
	// BECoresTotal is the core budget split across BE workloads
	// (0 defaults to 4 per workload).
	BECoresTotal int `json:"be_cores_total,omitempty"`
	// Policy names the management policy (see PolicyNames). Empty
	// defaults to "memtis".
	Policy string `json:"policy,omitempty"`
	// Load selects the LC load pattern; nil defaults to the Figure 7
	// ramp.
	Load *LoadSpec `json:"load,omitempty"`
	// Scale divides all memory sizes, preserving ratios (0 or 1 keeps
	// the paper geometry).
	Scale int `json:"scale,omitempty"`
	// Seed drives all scenario randomness.
	Seed int64 `json:"seed,omitempty"`
	// DurationSeconds bounds the run (0 = load pattern length).
	DurationSeconds float64 `json:"duration_s,omitempty"`
	// TickSeconds overrides the simulation step (0 = default 0.1).
	TickSeconds float64 `json:"tick_s,omitempty"`
	// WarmupSeconds excludes initial ticks from aggregates.
	WarmupSeconds float64 `json:"warmup_s,omitempty"`
	// Episodes is the in-process training budget for MTAT policies
	// (0 lets the executor choose its default).
	Episodes int `json:"episodes,omitempty"`
	// SLOScale multiplies the LC workload's P99 objective (0 or 1 keeps
	// the profile's SLO; 0.5 halves it, 2 doubles it) — the SLO axis of
	// a parameter sweep.
	SLOScale float64 `json:"slo_scale,omitempty"`
}

// LoadSpec is the JSON-serializable form of a load pattern. Kind selects
// the shape; the other fields parameterize it (see LoadKinds).
type LoadSpec struct {
	// Kind is one of fig7, constant, steps, diurnal, bursts.
	Kind string `json:"kind"`
	// Frac is the constant pattern's fraction of max load.
	Frac float64 `json:"frac,omitempty"`
	// DurationSeconds is the constant pattern's length.
	DurationSeconds float64 `json:"duration_s,omitempty"`
	// Fracs are the steps pattern's levels.
	Fracs []float64 `json:"fracs,omitempty"`
	// StepSeconds is the steps pattern's per-level hold time.
	StepSeconds float64 `json:"step_s,omitempty"`
	// Low/High bound the diurnal sinusoid.
	Low  float64 `json:"low,omitempty"`
	High float64 `json:"high,omitempty"`
	// PeriodSeconds is the diurnal or burst period.
	PeriodSeconds float64 `json:"period_s,omitempty"`
	// Cycles repeats the diurnal period.
	Cycles int `json:"cycles,omitempty"`
	// Base/Peak bound the bursts pattern.
	Base float64 `json:"base,omitempty"`
	Peak float64 `json:"peak,omitempty"`
	// BurstSeconds is the bursts pattern's spike length.
	BurstSeconds float64 `json:"burst_s,omitempty"`
	// TotalSeconds is the bursts pattern's overall length.
	TotalSeconds float64 `json:"total_s,omitempty"`
}

// LoadKinds returns the valid LoadSpec.Kind values.
func LoadKinds() []string {
	return []string{"fig7", "constant", "steps", "diurnal", "bursts"}
}

// Pattern materializes the spec into a loadgen pattern. A nil spec
// returns (nil, nil) — scenario building then applies the Figure 7
// default.
func (l *LoadSpec) Pattern() (loadgen.Pattern, error) {
	if l == nil {
		return nil, nil
	}
	switch l.Kind {
	case "fig7":
		return loadgen.Fig7(), nil
	case "constant":
		d := l.DurationSeconds
		if d == 0 {
			d = 120
		}
		return loadgen.NewConstant(l.Frac, d)
	case "steps":
		return loadgen.NewSteps(l.Fracs, l.StepSeconds)
	case "diurnal":
		cycles := l.Cycles
		if cycles == 0 {
			cycles = 1
		}
		return loadgen.NewDiurnal(l.Low, l.High, l.PeriodSeconds, cycles)
	case "bursts":
		return loadgen.NewBursts(l.Base, l.Peak, l.PeriodSeconds, l.BurstSeconds, l.TotalSeconds)
	default:
		return nil, fmt.Errorf("sim: unknown load kind %q (valid: %s)",
			l.Kind, strings.Join(LoadKinds(), ", "))
	}
}

// PolicyName returns the effective policy name (the "memtis" default
// applied).
func (s RunSpec) PolicyName() string {
	if s.Policy == "" {
		return "memtis"
	}
	return s.Policy
}

// Validate reports whether the spec describes a runnable scenario,
// without building or training anything. Errors name the offending field
// and list the valid choices.
func (s RunSpec) Validate() error {
	if s.LC == "" && len(s.BEs) == 0 {
		// nil BEs means "all four", so only an explicit empty list with
		// no LC is an empty scenario — match PaperScenario's view.
		if s.BEs != nil {
			return fmt.Errorf("sim: spec needs at least one workload (set lc and/or bes)")
		}
	}
	if s.LC != "" {
		if _, ok := workload.LCConfigByName(s.LC); !ok {
			return fmt.Errorf("sim: unknown LC workload %q (valid: %s)",
				s.LC, strings.Join(workload.LCNames(), ", "))
		}
	}
	for _, name := range s.BEs {
		if _, ok := workload.BEConfigByName(name, 1); !ok {
			return fmt.Errorf("sim: unknown BE workload %q (valid: %s)",
				name, strings.Join(workload.BENames(), ", "))
		}
	}
	if !validPolicy(s.PolicyName()) {
		return fmt.Errorf("sim: unknown policy %q (valid: %s)",
			s.Policy, strings.Join(PolicyNames(), ", "))
	}
	if policyNeedsLC(s.PolicyName()) && s.LC == "" {
		return fmt.Errorf("sim: policy %q needs an LC workload (set lc)", s.PolicyName())
	}
	if s.Load != nil {
		if _, err := s.Load.Pattern(); err != nil {
			return err
		}
	}
	if s.LCServers < 0 {
		return fmt.Errorf("sim: lc_servers must be >= 0, got %d", s.LCServers)
	}
	if s.BECoresTotal < 0 {
		return fmt.Errorf("sim: be_cores_total must be >= 0, got %d", s.BECoresTotal)
	}
	if s.Scale < 0 {
		return fmt.Errorf("sim: scale must be >= 0, got %d", s.Scale)
	}
	if s.DurationSeconds < 0 {
		return fmt.Errorf("sim: duration_s must be >= 0, got %g", s.DurationSeconds)
	}
	if s.TickSeconds < 0 {
		return fmt.Errorf("sim: tick_s must be >= 0, got %g", s.TickSeconds)
	}
	if s.WarmupSeconds < 0 {
		return fmt.Errorf("sim: warmup_s must be >= 0, got %g", s.WarmupSeconds)
	}
	if s.Episodes < 0 {
		return fmt.Errorf("sim: episodes must be >= 0, got %d", s.Episodes)
	}
	if s.SLOScale < 0 {
		return fmt.Errorf("sim: slo_scale must be >= 0, got %g", s.SLOScale)
	}
	return nil
}

// Opts converts the spec's workload selection into PaperScenarioOpts.
// The load pattern is materialized; an invalid spec yields an error.
func (s RunSpec) Opts() (PaperScenarioOpts, error) {
	load, err := s.Load.Pattern()
	if err != nil {
		return PaperScenarioOpts{}, err
	}
	return PaperScenarioOpts{
		LCName:       s.LC,
		LCServers:    s.LCServers,
		BENames:      s.BEs,
		BECoresTotal: s.BECoresTotal,
		Load:         load,
		Scale:        s.Scale,
		Seed:         s.Seed,
	}, nil
}

// Scenario validates the spec and builds the runnable scenario with the
// spec's timing overrides applied.
func (s RunSpec) Scenario() (Scenario, error) {
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	opts, err := s.Opts()
	if err != nil {
		return Scenario{}, err
	}
	scn, err := PaperScenario(opts)
	if err != nil {
		return Scenario{}, err
	}
	if s.DurationSeconds > 0 {
		scn.DurationSeconds = s.DurationSeconds
	}
	if s.TickSeconds > 0 {
		scn.TickSeconds = s.TickSeconds
	}
	if s.WarmupSeconds > 0 {
		scn.WarmupSeconds = s.WarmupSeconds
	}
	if s.SLOScale > 0 && scn.HasLC {
		scn.LC.SLOSeconds *= s.SLOScale
	}
	return scn, nil
}

// ParseRunSpec decodes a JSON run spec strictly: unknown fields are
// rejected so that typos ("polcy") fail loudly instead of silently
// running the default.
func ParseRunSpec(data []byte) (RunSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s RunSpec
	if err := dec.Decode(&s); err != nil {
		return RunSpec{}, fmt.Errorf("sim: parse run spec: %w", err)
	}
	return s, nil
}

// PolicyNames returns every name accepted by NewPolicy, baselines first.
func PolicyNames() []string {
	return []string{
		"fmem-all", "smem-all", "memtis", "tpp",
		"vtmm", "heuristic", "memtis-region",
		"mtat-full", "mtat-lconly",
	}
}

func validPolicy(name string) bool {
	for _, n := range PolicyNames() {
		if n == name {
			return true
		}
	}
	return false
}

func policyNeedsLC(name string) bool {
	return name == "mtat-full" || name == "mtat-lconly"
}

// MTATConfigFor returns an MTAT configuration sized for the scenario: the
// LC workload's SLO and peak access rate drive the RL state/reward, and
// the BE allocation unit scales with the memory geometry. The peak access
// rate scales with the LC core count, as serving capacity does, when the
// scenario runs the LC workload on more or fewer cores than its profile
// (LCServers, Table 3's sweeps).
func MTATConfigFor(scn Scenario) (core.PPMConfig, error) {
	if !scn.HasLC {
		return core.PPMConfig{}, fmt.Errorf("sim: scenario has no LC workload")
	}
	maxAccesses := scn.LC.MaxLoadRPS * float64(scn.LC.MemTouches)
	if prof, ok := workload.LCConfigByName(scn.LC.Name); ok && prof.Servers > 0 {
		maxAccesses *= float64(scn.LC.Servers) / float64(prof.Servers)
	}
	cfg := core.DefaultPPMConfig(scn.LC.SLOSeconds, maxAccesses)
	if scn.Mem.PageSize > 0 {
		unit := int((1 << 30) / scn.Mem.PageSize) // 1 GiB in pages
		// Keep the paper's ~32 allocation units across FMem even on
		// scaled-down geometries.
		if units := scn.Mem.FMemBytes / (1 << 30); units < 32 {
			unit = int(scn.Mem.FMemBytes / 32 / scn.Mem.PageSize)
		}
		if unit < 1 {
			unit = 1
		}
		cfg.BEUnitPages = unit
	}
	return cfg, nil
}

// DefaultPretrainEpisodes is NewPolicy's training budget for MTAT
// policies when the caller passes episodes <= 0. Scaled-down service runs
// converge well below the paper's 60-episode budget.
const DefaultPretrainEpisodes = 20

// NewPolicy constructs the named policy for the scenario. MTAT variants
// are pre-trained in-process on the scenario's geometry under the
// Figure 7 ramp for the given number of episodes (<= 0 selects
// DefaultPretrainEpisodes), through the trained-policy cache of
// TrainedMTAT: a second call whose training inputs match skips training.
// ctx cancels training between ticks. Baselines ignore ctx and episodes.
func NewPolicy(ctx context.Context, name string, scn Scenario, episodes int) (policy.Policy, error) {
	switch name {
	case "fmem-all":
		return policy.NewFMemAll(), nil
	case "smem-all":
		return policy.NewSMemAll(), nil
	case "memtis":
		return policy.NewMEMTIS(), nil
	case "tpp":
		return policy.NewTPP(), nil
	case "vtmm":
		return policy.NewVTMM(), nil
	case "heuristic":
		return policy.NewHeuristic(), nil
	case "memtis-region":
		return policy.NewRegionMEMTIS(), nil
	case "mtat-full", "mtat-lconly":
		variant := core.VariantFull
		if name == "mtat-lconly" {
			variant = core.VariantLCOnly
		}
		cfg, err := MTATConfigFor(scn)
		if err != nil {
			return nil, err
		}
		if episodes <= 0 {
			episodes = DefaultPretrainEpisodes
		}
		m, _, err := TrainedMTAT(ctx, variant, cfg, mtatTrainingScenario(scn), episodes)
		if err != nil {
			return nil, err
		}
		return m, nil
	default:
		return nil, fmt.Errorf("sim: unknown policy %q (valid: %s)",
			name, strings.Join(PolicyNames(), ", "))
	}
}

// TrainTickSeconds is the simulation tick MTAT agents are pre-trained at:
// coarser than the default evaluation tick (0.1 s), to cut training cost.
const TrainTickSeconds = 0.25

// mtatTrainingScenario is the scenario NewPolicy trains MTAT agents on:
// the run's geometry, workloads, seed and core under the Figure 7 ramp at
// TrainTickSeconds. The run's own load, length and tick play no part in
// training (nor its telemetry: TrainedMTAT drops it).
func mtatTrainingScenario(scn Scenario) Scenario {
	scn.Load = loadgen.Fig7()
	scn.DurationSeconds = 0
	scn.TickSeconds = TrainTickSeconds
	return scn
}
