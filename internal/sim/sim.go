// Package sim orchestrates complete co-location scenarios: it wires a
// tiered memory system, a latency-critical workload, best-effort
// workloads, a PEBS sampler and a management policy, then advances
// simulated time in fixed ticks, collecting the latency, throughput,
// allocation, and fairness measurements the paper's evaluation reports.
package sim

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/tieredmem/mtat/internal/core"
	"github.com/tieredmem/mtat/internal/loadgen"
	"github.com/tieredmem/mtat/internal/mem"
	"github.com/tieredmem/mtat/internal/pebs"
	"github.com/tieredmem/mtat/internal/policy"
	"github.com/tieredmem/mtat/internal/stats"
	"github.com/tieredmem/mtat/internal/telemetry"
	"github.com/tieredmem/mtat/internal/workload"
)

// Scenario describes one co-location experiment.
type Scenario struct {
	// Mem is the memory system geometry; zero value uses the paper's
	// testbed defaults.
	Mem mem.Config
	// LC is the latency-critical workload profile. HasLC gates it.
	LC    workload.LCConfig
	HasLC bool
	// LCInitialTier places the LC workload at start (the §5.1 runs start
	// with LC occupying 100% of FMem).
	LCInitialTier mem.Tier
	// BEs are the co-located best-effort profiles.
	BEs []workload.BEConfig
	// Load drives the LC workload (fraction of LC.MaxLoadRPS over time).
	Load loadgen.Pattern
	// TickSeconds is the simulation step (default 0.1).
	TickSeconds float64
	// DurationSeconds bounds the run (default: the load pattern length).
	DurationSeconds float64
	// WarmupSeconds excludes initial ticks from aggregate metrics (the
	// time series still include them).
	WarmupSeconds float64
	// SettleSeconds excludes ticks within this many seconds after a load
	// level change from aggregate metrics, mirroring the paper's §5.2
	// methodology of checking SLO breaches during (settled) load
	// periods rather than across step transitions. Time series still
	// include every tick. Negative disables; zero defaults to 8.
	SettleSeconds float64
	// SampleRate is the PEBS sampling rate (default 1e-4).
	SampleRate float64
	// Seed drives all scenario randomness.
	Seed int64
	// Telemetry is an optional observability sink: the runner and the
	// policy record metrics and trace events into it, including the
	// core events the flight view serves (promotions, demotions, SLO
	// violations, policy switches, load shifts). Nil (the default) keeps
	// all instrumentation on its zero-cost no-op path.
	Telemetry *telemetry.Telemetry
	// ReferenceCore runs the scenario on the retained reference (seed)
	// implementations of the core hot paths — eager hotness aging,
	// per-call histogram rebuilds for hotness-ranked page selection, the
	// map-backed PEBS tick dedup, full-CDF Zipf searches, and full-sort
	// queue quantiles — instead
	// of the optimized ones. Both cores are behaviorally identical; the
	// internal/simtest differential harness runs every scenario both ways
	// and asserts matching results. Not part of the RunSpec wire format.
	ReferenceCore bool
}

// withDefaults fills unset fields.
func (s Scenario) withDefaults() Scenario {
	if s.Mem.PageSize == 0 {
		s.Mem = mem.DefaultConfig()
	}
	if s.TickSeconds == 0 {
		s.TickSeconds = 0.1
	}
	if s.DurationSeconds == 0 && s.Load != nil {
		s.DurationSeconds = s.Load.Duration()
	}
	if s.SampleRate == 0 {
		s.SampleRate = 1e-4
	}
	if s.SettleSeconds == 0 {
		s.SettleSeconds = 8
	}
	if s.LCInitialTier == 0 {
		s.LCInitialTier = mem.TierFMem
	}
	return s
}

// Validate reports whether the scenario is runnable.
func (s Scenario) Validate() error {
	if !s.HasLC && len(s.BEs) == 0 {
		return fmt.Errorf("sim: scenario needs at least one workload")
	}
	if s.HasLC && s.Load == nil {
		return fmt.Errorf("sim: scenario with an LC workload needs a load pattern")
	}
	if s.DurationSeconds <= 0 {
		return fmt.Errorf("sim: DurationSeconds must be > 0, got %g", s.DurationSeconds)
	}
	if s.TickSeconds <= 0 || s.TickSeconds > s.DurationSeconds {
		return fmt.Errorf("sim: TickSeconds must be in (0, duration], got %g", s.TickSeconds)
	}
	if s.WarmupSeconds < 0 || s.WarmupSeconds >= s.DurationSeconds {
		return fmt.Errorf("sim: WarmupSeconds must be in [0, duration), got %g", s.WarmupSeconds)
	}
	return nil
}

// BEOutcome aggregates one BE workload's run.
type BEOutcome struct {
	Name string
	// Throughput is average work/second over the measured window.
	Throughput float64
	// PerfFull is the workload's 100%-FMem throughput (Eq. 3 baseline).
	PerfFull float64
	// NP is Throughput / PerfFull.
	NP float64
	// AvgFMemPages is the time-averaged FMem residency.
	AvgFMemPages float64
}

// Result aggregates one scenario run.
type Result struct {
	Policy   string
	Scenario Scenario

	// Time series sampled each tick (including warmup).
	Time        *stats.Series // tick times (value == time, convenience)
	LCP99       *stats.Series // seconds
	LCLoadKRPS  *stats.Series
	LCFMemRatio *stats.Series // fraction of LC memory in FMem
	BEFMem      *stats.SeriesSet

	// Aggregates over the measured (post-warmup) window.
	LCRequests      float64
	LCViolations    float64 // requests beyond SLO
	LCViolationRate float64 // LCViolations / LCRequests
	LCMaxP99        float64
	LCMeanP99       float64
	// SLOMet reports whether at most 1% of requests in the measured
	// window exceeded the SLO (rate-based, robust to estimator noise).
	SLOMet bool

	BEs          []BEOutcome
	BEFairness   float64 // min NP (Eq. 3 / §5.1 metric)
	BEThroughput float64 // sum of BE throughputs

	MigratedBytes int64
	Ticks         int

	// Core is the run's resource accounting (always collected; the
	// per-tick counters it diffs are maintained unconditionally by the
	// hot-path packages).
	Core *CoreStats
}

// Runner executes one scenario under one policy.
type Runner struct {
	scn     Scenario
	pol     policy.Policy
	sys     *mem.System
	sampler *pebs.Sampler
	lc      *workload.LC
	bes     []*workload.BE
	ctx     *policy.Context
}

// NewRunner builds a runner: a fresh memory system with workloads attached
// and the policy initialized.
func NewRunner(scn Scenario, pol policy.Policy) (*Runner, error) {
	scn = scn.withDefaults()
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	if pol == nil {
		return nil, fmt.Errorf("sim: policy must not be nil")
	}
	sys, err := mem.NewSystem(scn.Mem)
	if err != nil {
		return nil, err
	}
	r := &Runner{scn: scn, pol: pol, sys: sys}
	if scn.HasLC {
		lc, err := workload.NewLC(sys, scn.LC, scn.LCInitialTier, scn.Seed+1)
		if err != nil {
			return nil, err
		}
		r.lc = lc
	}
	for i, bc := range scn.BEs {
		be, err := workload.NewBE(sys, bc, mem.TierSMem)
		if err != nil {
			return nil, err
		}
		r.bes = append(r.bes, be)
		_ = i
	}
	sampler, err := pebs.NewSampler(sys, scn.SampleRate, scn.Seed+2)
	if err != nil {
		return nil, err
	}
	r.sampler = sampler
	if scn.ReferenceCore {
		sys.SetReference(true)
		sampler.SetReference(true)
		if r.lc != nil {
			r.lc.Queue().SetReference(true)
		}
	}
	r.ctx = &policy.Context{
		Sys:       sys,
		Sampler:   sampler,
		DT:        scn.TickSeconds,
		LC:        r.lc,
		BEs:       r.bes,
		BEResults: make([]workload.BETickResult, len(r.bes)),
		Telemetry: scn.Telemetry,
	}
	if err := pol.Init(r.ctx); err != nil {
		return nil, err
	}
	return r, nil
}

// System exposes the memory system (tests, diagnostics).
func (r *Runner) System() *mem.System { return r.sys }

// LC exposes the latency-critical workload (tests, diagnostics).
func (r *Runner) LC() *workload.LC { return r.lc }

// BEs exposes the best-effort workloads (tests, diagnostics).
func (r *Runner) BEs() []*workload.BE { return r.bes }

// Run advances the scenario to completion and returns the result.
func (r *Runner) Run() (*Result, error) {
	return r.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the tick loop checks
// ctx between ticks and returns ctx.Err() once it is done, discarding the
// partial result. A nil ctx behaves like context.Background().
func (r *Runner) RunContext(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	scn := r.scn
	res := &Result{
		Policy:      r.pol.Name(),
		Scenario:    scn,
		Time:        &stats.Series{Name: "time"},
		LCP99:       &stats.Series{Name: "p99"},
		LCLoadKRPS:  &stats.Series{Name: "load_krps"},
		LCFMemRatio: &stats.Series{Name: "fmem_ratio"},
		BEFMem:      stats.NewSeriesSet(),
	}
	dt := scn.TickSeconds
	ticks := int(math.Round(scn.DurationSeconds / dt))
	tickDur := time.Duration(dt * float64(time.Second))

	// Observability handles — all nil-safe no-ops without a sink.
	reg := scn.Telemetry.Metrics()
	tr := scn.Telemetry.Tracer()
	probe := r.beginCore()
	mTicks := reg.Counter(telemetry.MetricSimTicks)
	mViolations := reg.Counter(telemetry.MetricSimViolations)
	mP99 := reg.Histogram(telemetry.MetricSimP99)
	mLoad := reg.Gauge(telemetry.MetricSimLoad)
	mFMem := reg.Gauge(telemetry.MetricSimFMemRatio)
	if tr != nil {
		slo := 0.0
		if scn.HasLC {
			slo = scn.LC.SLOSeconds
		}
		tr.EmitMsg(0, telemetry.EvRunStart, telemetry.WLNone, res.Policy,
			telemetry.F("duration_s", scn.DurationSeconds),
			telemetry.F("tick_s", dt),
			telemetry.F("slo_s", slo))
	}
	if tr != nil {
		if r.lc != nil {
			tr.EmitMsg(0, telemetry.EvRunWorkload, int(r.lc.ID()), scn.LC.Name,
				telemetry.F("is_lc", 1),
				telemetry.I("total_pages", r.sys.TotalPages(r.lc.ID())))
		}
		for _, be := range r.bes {
			tr.EmitMsg(0, telemetry.EvRunWorkload, int(be.ID()), be.Config().Name,
				telemetry.F("is_lc", 0),
				telemetry.I("total_pages", r.sys.TotalPages(be.ID())))
		}
	}

	type beAgg struct {
		work      float64
		fmemPages float64
	}
	beAggs := make([]beAgg, len(r.bes))
	var measuredSeconds float64
	migStart := r.sys.MigratedBytes()

	lastFrac := -1.0
	settleUntil := 0.0
	var lcMeasuredTicks float64
	lastStall := r.pol.LCStall()
	lastPromoted := r.sys.PromotedPages()
	lastDemoted := r.sys.DemotedPages()
	for i := 0; i < ticks; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		now := float64(i) * dt
		measuring := now >= scn.WarmupSeconds
		r.sys.BeginTick(tickDur)
		r.sampler.BeginTick()

		// Workload progress under current placement.
		if r.lc != nil {
			frac := scn.Load.Frac(now)
			if frac != lastFrac {
				if lastFrac >= 0 && scn.SettleSeconds > 0 {
					settleUntil = now + scn.SettleSeconds
				}
				lastFrac = frac
				if tr != nil {
					tr.Emit(now, telemetry.EvLoadShift, int(r.lc.ID()),
						telemetry.F("load", frac))
				}
			}
			if now < settleUntil {
				measuring = false
			}
			lcRes, err := r.lc.Tick(frac, dt, r.pol.LCStall())
			if err != nil {
				return nil, err
			}
			r.sampler.RecordAccesses(r.lc.ID(), r.lc.Dist(), lcRes.Accesses)
			r.ctx.LCResult = lcRes
			fmemRatio := r.sys.FMemUsageRatio(r.lc.ID())

			mP99.Observe(lcRes.P99)
			mLoad.Set(frac)
			mFMem.Set(fmemRatio)
			if lcRes.ViolationFrac > 0 {
				vios := lcRes.ViolationFrac * (lcRes.Completed + lcRes.Dropped)
				mViolations.Add(int64(math.Round(vios)))
				if tr != nil {
					tr.Emit(now, telemetry.EvSLOViolation, int(r.lc.ID()),
						telemetry.F("p99_s", lcRes.P99),
						telemetry.F("frac", lcRes.ViolationFrac),
						telemetry.F("load", frac),
						telemetry.F("fmem_ratio", fmemRatio))
				}
			}

			res.Time.Append(now, now)
			res.LCP99.Append(now, lcRes.P99)
			res.LCLoadKRPS.Append(now, frac*scn.LC.MaxLoadRPS/1000)
			res.LCFMemRatio.Append(now, fmemRatio)
			if measuring {
				res.LCRequests += lcRes.Completed + lcRes.Dropped
				res.LCViolations += lcRes.ViolationFrac * (lcRes.Completed + lcRes.Dropped)
				if lcRes.P99 > res.LCMaxP99 {
					res.LCMaxP99 = lcRes.P99
				}
				res.LCMeanP99 += lcRes.P99
				lcMeasuredTicks++
			}
		}
		for j, be := range r.bes {
			beRes, err := be.Tick(dt)
			if err != nil {
				return nil, err
			}
			r.sampler.RecordAccesses(be.ID(), be.Dist(), beRes.Accesses)
			r.ctx.BEResults[j] = beRes
			res.BEFMem.Get(be.Config().Name).Append(now, float64(r.sys.FMemPages(be.ID())))
			if measuring {
				beAggs[j].work += beRes.Work
				beAggs[j].fmemPages += float64(r.sys.FMemPages(be.ID())) * dt
			}
		}
		if measuring {
			measuredSeconds += dt
		}

		// Policy action.
		r.ctx.Now = now
		if err := r.pol.Tick(r.ctx); err != nil {
			return nil, err
		}
		mTicks.Inc()
		if tr != nil {
			if p := r.sys.PromotedPages(); p != lastPromoted {
				tr.Emit(now, telemetry.EvPromotion, telemetry.WLNone,
					telemetry.F("pages", float64(p-lastPromoted)))
				lastPromoted = p
			}
			if d := r.sys.DemotedPages(); d != lastDemoted {
				tr.Emit(now, telemetry.EvDemotion, telemetry.WLNone,
					telemetry.F("pages", float64(d-lastDemoted)))
				lastDemoted = d
			}
			if s := r.pol.LCStall(); s != lastStall {
				tr.EmitMsg(now, telemetry.EvPolicySwitch, telemetry.WLNone, res.Policy,
					telemetry.F("stall_s", s))
				lastStall = s
			}
		}
	}

	res.Ticks = ticks
	res.MigratedBytes = r.sys.MigratedBytes() - migStart
	if r.lc != nil && res.LCRequests > 0 {
		res.LCViolationRate = res.LCViolations / res.LCRequests
	}
	if r.lc != nil {
		if lcMeasuredTicks > 0 {
			res.LCMeanP99 /= lcMeasuredTicks
		}
		res.SLOMet = res.LCViolationRate <= 0.01
	}
	if measuredSeconds > 0 {
		nps := make([]float64, 0, len(r.bes))
		for j, be := range r.bes {
			tput := beAggs[j].work / measuredSeconds
			out := BEOutcome{
				Name:         be.Config().Name,
				Throughput:   tput,
				PerfFull:     be.PerfFull(),
				AvgFMemPages: beAggs[j].fmemPages / measuredSeconds,
			}
			if out.PerfFull > 0 {
				out.NP = tput / out.PerfFull
			}
			res.BEs = append(res.BEs, out)
			nps = append(nps, out.NP)
			res.BEThroughput += tput
			reg.Gauge("sim_be_np." + out.Name).Set(out.NP)
		}
		res.BEFairness = stats.Fairness(nps)
	}
	if tr != nil {
		sloMet := 0.0
		if res.SLOMet {
			sloMet = 1
		}
		tr.EmitMsg(scn.DurationSeconds, telemetry.EvRunEnd, telemetry.WLNone, res.Policy,
			telemetry.F("violation_rate", res.LCViolationRate),
			telemetry.F("max_p99_s", res.LCMaxP99),
			telemetry.F("mean_p99_s", res.LCMeanP99),
			telemetry.F("fairness", res.BEFairness),
			telemetry.F("be_throughput", res.BEThroughput),
			telemetry.F("migrated_bytes", float64(res.MigratedBytes)),
			telemetry.I("ticks", res.Ticks),
			telemetry.F("slo_met", sloMet))
	}
	res.Core = r.endCore(probe, ticks)
	res.Core.Publish(scn.Telemetry)
	return res, nil
}

// RunScenario is the one-shot convenience: build a runner and run it.
func RunScenario(scn Scenario, pol policy.Policy) (*Result, error) {
	return RunScenarioContext(context.Background(), scn, pol)
}

// RunScenarioContext is RunScenario with cooperative cancellation.
func RunScenarioContext(ctx context.Context, scn Scenario, pol policy.Policy) (*Result, error) {
	r, err := NewRunner(scn, pol)
	if err != nil {
		return nil, err
	}
	return r.RunContext(ctx)
}

// PretrainMTAT trains an MTAT policy's RL agent by running the scenario
// for the given number of episodes with online learning, then freezes the
// agent in deterministic evaluation mode. Fresh runner state is built per
// episode; the agent's replay buffer and weights persist across episodes.
func PretrainMTAT(m *core.MTAT, scn Scenario, episodes int) error {
	return PretrainMTATContext(context.Background(), m, scn, episodes)
}

// PretrainMTATContext is PretrainMTAT with cooperative cancellation:
// training stops between ticks as soon as ctx is done.
func PretrainMTATContext(ctx context.Context, m *core.MTAT, scn Scenario, episodes int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if episodes <= 0 {
		return fmt.Errorf("sim: episodes must be > 0, got %d", episodes)
	}
	m.SetEvalMode(false)
	for ep := 0; ep < episodes; ep++ {
		m.ResetEpisode()
		epScn := scn
		epScn.Seed = scn.Seed + int64(ep)*1000
		r, err := NewRunner(epScn, m)
		if err != nil {
			return fmt.Errorf("sim: pretrain episode %d: %w", ep, err)
		}
		if _, err := r.RunContext(ctx); err != nil {
			return fmt.Errorf("sim: pretrain episode %d: %w", ep, err)
		}
	}
	m.SetEvalMode(true)
	m.ResetEpisode()
	return nil
}
