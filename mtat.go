// Package mtat is a simulation-backed reproduction of MTAT ("Adaptive Fast
// Memory Management for Co-located Latency-Critical Workloads in Tiered
// Memory System", Middleware '25): an adaptive tiered-memory manager that
// partitions fast memory (FMem) per workload, sizing the latency-critical
// partition with a Soft Actor-Critic agent and splitting the remainder
// across best-effort workloads with a fairness-maximizing simulated-
// annealing search.
//
// The package exposes three layers:
//
//   - Workload/scenario modeling: the paper's benchmark profiles (Table 1
//     LC services, Table 2 BE applications) attached to a page-granular
//     two-tier memory model with a bandwidth-metered migration engine.
//   - Policies: MTAT itself (both the Full and LC Only variants) and the
//     published baselines MEMTIS, TPP, FMEM_ALL and SMEM_ALL, all behind
//     one Policy interface.
//   - Experiments: runners that regenerate every table and figure of the
//     paper's evaluation (see the Experiments function and cmd/mtatbench).
//
// # Quick start
//
//	scn, err := mtat.NewScenario(mtat.ScenarioOpts{LC: "redis", Scale: 16})
//	if err != nil { ... }
//	res, err := mtat.Run(scn, mtat.NewMEMTIS())
//	if err != nil { ... }
//	fmt.Printf("violation rate: %.1f%%\n", res.LCViolationRate*100)
//
// To run MTAT, construct and pre-train an agent first:
//
//	m, err := mtat.NewMTAT(mtat.VariantFull, mtat.MTATConfigFor(scn))
//	if err != nil { ... }
//	if err := mtat.Pretrain(m, scn, 60); err != nil { ... }
//	res, err = mtat.Run(scn, m)
//
// All randomness is seeded through the scenario, so identical inputs
// reproduce identical results.
package mtat

import (
	"context"

	"github.com/tieredmem/mtat/internal/core"
	"github.com/tieredmem/mtat/internal/experiments"
	"github.com/tieredmem/mtat/internal/loadgen"
	"github.com/tieredmem/mtat/internal/mem"
	"github.com/tieredmem/mtat/internal/policy"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/telemetry"
	"github.com/tieredmem/mtat/internal/workload"
)

// Core simulation types, re-exported from the implementation packages.
type (
	// Scenario describes one co-location experiment: memory geometry,
	// workloads, load pattern, and timing.
	Scenario = sim.Scenario
	// Result aggregates one scenario run: latency series, SLO
	// accounting, BE fairness and throughput.
	Result = sim.Result
	// BEOutcome is one best-effort workload's aggregate in a Result.
	BEOutcome = sim.BEOutcome
	// Runner executes one scenario under one policy.
	Runner = sim.Runner
	// Policy is a tiered-memory management policy.
	Policy = policy.Policy
	// MTAT is the paper's contribution: the PP-M/PP-E framework.
	MTAT = core.MTAT
	// MTATConfig configures MTAT's Partition Policy Maker.
	MTATConfig = core.PPMConfig
	// Variant selects the MTAT flavor (VariantFull or VariantLCOnly).
	Variant = core.Variant
	// MemConfig describes the tiered memory geometry and costs.
	MemConfig = mem.Config
	// LCConfig describes a latency-critical workload (Table 1).
	LCConfig = workload.LCConfig
	// BEConfig describes a best-effort workload (Table 2).
	BEConfig = workload.BEConfig
	// LoadPattern yields the offered LC load over time.
	LoadPattern = loadgen.Pattern
	// ExperimentsConfig scopes a paper-evaluation experiment suite.
	ExperimentsConfig = experiments.Config
	// ExperimentSuite caches completed runs across experiments; trained
	// agents are shared process-wide (see NewPolicyByName).
	ExperimentSuite = experiments.Suite
	// Experiment is one reproducible table or figure.
	Experiment = experiments.Experiment
	// Telemetry is the observability sink: a metrics registry plus a
	// bounded event tracer. Attach one to Scenario.Telemetry to record
	// the control loop's decisions; a nil sink costs nothing.
	Telemetry = telemetry.Telemetry
	// TelemetryConfig sizes the telemetry buffers.
	TelemetryConfig = telemetry.Config
	// TraceEvent is one structured record in the telemetry event trace.
	TraceEvent = telemetry.Event
	// TelemetryServer is a background HTTP listener with clean shutdown
	// (see ServeTelemetry).
	TelemetryServer = telemetry.Server
	// RunSpec is the JSON-serializable description of one scenario run —
	// the wire format of the mtatd control plane (see cmd/mtatd).
	RunSpec = sim.RunSpec
	// LoadSpec is the JSON-serializable form of a load pattern inside a
	// RunSpec.
	LoadSpec = sim.LoadSpec
)

// MTAT variants (§5's two configurations).
const (
	// VariantFull partitions FMem for the LC workload and every BE
	// workload.
	VariantFull = core.VariantFull
	// VariantLCOnly partitions FMem only for the LC workload; BE
	// workloads compete for the remainder by hotness.
	VariantLCOnly = core.VariantLCOnly
)

// Memory tiers.
const (
	TierFMem = mem.TierFMem
	TierSMem = mem.TierSMem
)

// ScenarioOpts parameterizes NewScenario.
type ScenarioOpts struct {
	// LC names the latency-critical workload (redis, memcached, mongodb,
	// silo). Empty builds a BE-only scenario.
	LC string
	// LCServers overrides the LC thread count (0 keeps the profile's).
	LCServers int
	// BEs names the co-located best-effort workloads (sssp, bfs, pr,
	// xsbench); nil selects all four.
	BEs []string
	// BECoresTotal is the core budget split across BE workloads
	// (0 defaults to 4 per workload).
	BECoresTotal int
	// Load is the LC load pattern; nil defaults to the paper's Figure 7
	// ramp (20%→100%→20% in 20-point steps every 20 s).
	Load LoadPattern
	// Scale divides all memory sizes, preserving ratios; 0 or 1 keeps
	// the paper's 32 GiB + 256 GiB geometry. Results are
	// scale-invariant; larger scales run faster.
	Scale int
	// Seed drives all scenario randomness.
	Seed int64
}

// NewScenario builds the paper's co-location scenario (§5): the chosen LC
// workload initially occupying FMem plus the chosen BE workloads on the
// two-tier geometry.
func NewScenario(opts ScenarioOpts) (Scenario, error) {
	return sim.PaperScenario(sim.PaperScenarioOpts{
		LCName:       opts.LC,
		LCServers:    opts.LCServers,
		BENames:      opts.BEs,
		BECoresTotal: opts.BECoresTotal,
		Load:         opts.Load,
		Scale:        opts.Scale,
		Seed:         opts.Seed,
	})
}

// Run executes the scenario under the policy and returns the aggregated
// result.
func Run(scn Scenario, pol Policy) (*Result, error) {
	return sim.RunScenario(scn, pol)
}

// NewRunner builds a reusable runner for step-by-step control.
func NewRunner(scn Scenario, pol Policy) (*Runner, error) {
	return sim.NewRunner(scn, pol)
}

// NewMTAT constructs an MTAT policy of the given variant.
func NewMTAT(variant Variant, cfg MTATConfig) (*MTAT, error) {
	return core.New(variant, cfg)
}

// NewTelemetry returns an observability sink with default buffer sizes.
// Set it as Scenario.Telemetry before running; read metrics via
// Metrics().Snapshot()/WriteJSON, the event trace via
// Tracer().WriteJSONL, or serve both over HTTP with Handler().
func NewTelemetry() *Telemetry { return telemetry.New() }

// NewTelemetryWithConfig returns a sink with custom buffer sizes.
func NewTelemetryWithConfig(cfg TelemetryConfig) *Telemetry {
	return telemetry.NewWithConfig(cfg)
}

// ServeTelemetry serves t's introspection handler (/metrics, /trace,
// /debug/pprof/) on addr in the background. Stop it with Shutdown for a
// clean exit — unlike a bare `go http.Serve(...)`, no goroutine outlives
// the server.
func ServeTelemetry(addr string, t *Telemetry) (*TelemetryServer, error) {
	return telemetry.Serve(addr, t.Handler())
}

// PolicyNames returns every policy name accepted by NewPolicyByName (and
// by the mtatd control plane's run specs), baselines first.
var PolicyNames = sim.PolicyNames

// NewPolicyByName constructs the named policy for the scenario. MTAT
// variants are pre-trained in-process (episodes <= 0 selects the default
// budget); ctx cancels training between ticks. Trained agents are cached
// in the process, so a second call with the same training inputs skips
// training.
func NewPolicyByName(ctx context.Context, name string, scn Scenario, episodes int) (Policy, error) {
	return sim.NewPolicy(ctx, name, scn, episodes)
}

// MTATConfigFor returns an MTAT configuration sized for the scenario: the
// LC workload's SLO and peak access rate drive the RL state/reward, and
// the BE allocation unit scales with the memory geometry.
func MTATConfigFor(scn Scenario) (MTATConfig, error) {
	return sim.MTATConfigFor(scn)
}

// TrainTickSeconds is the simulation tick MTAT agents are pre-trained at
// (set it as the training scenario's TickSeconds before Pretrain):
// coarser than the default evaluation tick, to cut training cost.
const TrainTickSeconds = sim.TrainTickSeconds

// Pretrain trains an MTAT agent on the scenario's load pattern for the
// given number of episodes, then freezes it in deterministic evaluation
// mode. 45-60 episodes suffice for the paper's scenarios.
func Pretrain(m *MTAT, scn Scenario, episodes int) error {
	return sim.PretrainMTAT(m, scn, episodes)
}

// Baseline policy constructors (§5's comparisons).
var (
	// NewMEMTIS returns the MEMTIS baseline: one global access histogram
	// keeps the hottest pages of all tenants in FMem.
	NewMEMTIS = func() Policy { return policy.NewMEMTIS() }
	// NewTPP returns the TPP baseline: fault-driven promotion with
	// active/inactive lists and free-headroom demotion.
	NewTPP = func() Policy { return policy.NewTPP() }
	// NewFMemAll returns the FMEM_ALL static baseline: the LC workload
	// exclusively occupies FMem.
	NewFMemAll = func() Policy { return policy.NewFMemAll() }
	// NewSMemAll returns the SMEM_ALL static baseline: the LC workload
	// is confined to SMem.
	NewSMemAll = func() Policy { return policy.NewSMemAll() }
)

// Extension policies beyond the paper's comparison set (see §6 of the
// paper for the systems they model).
var (
	// NewVTMM returns the vTMM baseline: per-workload partitions sized
	// proportionally to hot-set sizes.
	NewVTMM = func() Policy { return policy.NewVTMM() }
	// NewHeuristic returns a PARTIES-style latency-feedback controller —
	// the natural non-learning comparator to MTAT's RL partitioner.
	NewHeuristic = func() Policy { return policy.NewHeuristic() }
	// NewRegionMEMTIS returns MEMTIS driven by DAMON-style region
	// monitoring instead of per-page counters.
	NewRegionMEMTIS = func() Policy { return policy.NewRegionMEMTIS() }
)

// Workload profile accessors (Tables 1 and 2).
var (
	// LCProfiles returns the four Table 1 latency-critical profiles.
	LCProfiles = workload.LCConfigs
	// BEProfiles returns the four Table 2 best-effort profiles with the
	// given per-workload core count.
	BEProfiles = workload.BEConfigs
)

// Load pattern constructors.
var (
	// Fig7Load returns the paper's Figure 7 dynamic ramp.
	Fig7Load = func() LoadPattern { return loadgen.Fig7() }
)

// ConstantLoad returns a constant load at frac of max load for the given
// duration in seconds. Fractions above 1 probe beyond the nominal max.
func ConstantLoad(frac, durationSeconds float64) (LoadPattern, error) {
	return loadgen.NewConstant(frac, durationSeconds)
}

// StepLoad returns a piecewise-constant pattern holding each fraction for
// stepSeconds.
func StepLoad(fracs []float64, stepSeconds float64) (LoadPattern, error) {
	return loadgen.NewSteps(fracs, stepSeconds)
}

// TraceLoad replays (time, fraction) samples with linear interpolation —
// use loadgen.ReadTraceCSV to parse a recorded trace file.
func TraceLoad(times, fracs []float64) (LoadPattern, error) {
	return loadgen.NewTrace(times, fracs)
}

// DiurnalLoad returns a day/night sinusoid between low and high with the
// given period, repeated for cycles.
func DiurnalLoad(low, high, periodSeconds float64, cycles int) (LoadPattern, error) {
	return loadgen.NewDiurnal(low, high, periodSeconds, cycles)
}

// BurstLoad lays periodic spikes to peak over a base level — the "sudden
// demand surge" shape of the paper's abstract.
func BurstLoad(base, peak, periodSeconds, burstSeconds, totalSeconds float64) (LoadPattern, error) {
	return loadgen.NewBursts(base, peak, periodSeconds, burstSeconds, totalSeconds)
}

// Experiment suite accessors (cmd/mtatbench drives these).
var (
	// Experiments returns every paper experiment in evaluation order.
	Experiments = experiments.All
	// ExperimentByID looks an experiment up by its identifier (e.g.
	// "fig5", "table4").
	ExperimentByID = experiments.ByID
	// DefaultExperiments returns the full paper-scale suite
	// configuration.
	DefaultExperiments = experiments.Default
	// QuickExperiments returns the reduced configuration used by the
	// benchmark suite.
	QuickExperiments = experiments.Quick
	// NewExperimentSuite builds a suite with shared caches.
	NewExperimentSuite = experiments.NewSuite
)
