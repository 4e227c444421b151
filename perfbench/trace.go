package main

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
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/workload"
)

// The traced run is the benchmark's own copy of the sim.Runner tick loop
// (internal/sim/sim.go) and of MTAT pretraining, built only from public
// calls so that each call into a layer can be timed from outside the
// program. It must stay step-for-step equivalent to the Runner: the
// benchmark checks that both produce the same LC violations, migrated
// bytes, per-BE throughput and trained SAC weights, and marks the
// per-layer numbers invalid when they do not.

// phase is one timed layer boundary.
type phase int

const (
	phBeginTick phase = iota // mem.System.BeginTick
	phLCTick                 // workload.LC.Tick (includes the queue model)
	phPEBS                   // pebs.Sampler.BeginTick and RecordAccesses
	phBETick                 // workload.BE.Tick
	phPolicy                 // policy.Policy.Tick (baselines)
	phPPE                    // core.PPE Tick and ResetInterval
	phPPM                    // core.PPM Decide
	phAge                    // mem.System.AgeHotness at PP-M decisions
	phBuild                  // memory system, workloads, sampler, policy Init
	numPhases
)

var phaseNames = [numPhases]string{
	"mem.begin_tick_s", "workload.lc_tick_s", "pebs.record_s", "workload.be_tick_s",
	"policy.tick_s", "core.ppe.tick_s", "core.ppm.decide_s", "mem.age_s", "sim.build_s",
}

// layerTimes accumulates self time and work counts per layer for one
// phase of a cell (training or evaluation).
type layerTimes struct {
	d          [numPhases]time.Duration
	samples    uint64
	queueDraws int64
	promoted   int64
	demoted    int64
	decisions  int
	ticks      int
}

// since adds the time elapsed since start to phase p.
func (lt *layerTimes) since(p phase, start time.Time) {
	lt.d[p] += time.Since(start)
}

func (lt *layerTimes) total() time.Duration {
	var sum time.Duration
	for _, d := range lt.d {
		sum += d
	}
	return sum
}

func (lt *layerTimes) add(o *layerTimes) {
	for i := range lt.d {
		lt.d[i] += o.d[i]
	}
	lt.samples += o.samples
	lt.queueDraws += o.queueDraws
	lt.promoted += o.promoted
	lt.demoted += o.demoted
	lt.decisions += o.decisions
	lt.ticks += o.ticks
}

// cellOutcome is what the equality check compares between the traced and
// the untraced run of one cell.
type cellOutcome struct {
	LCViolations  float64
	LCRequests    float64
	MigratedBytes int64
	BEThroughput  []float64
	Ticks         int
	// Agent is the SAC weights after pretraining (MTAT policies only).
	Agent []byte
}

// diff names the first field where two outcomes differ ("" if none).
func (o cellOutcome) diff(p cellOutcome) string {
	switch {
	case o.LCViolations != p.LCViolations:
		return fmt.Sprintf("lc_violations %v != %v", o.LCViolations, p.LCViolations)
	case o.LCRequests != p.LCRequests:
		return fmt.Sprintf("lc_requests %v != %v", o.LCRequests, p.LCRequests)
	case o.MigratedBytes != p.MigratedBytes:
		return fmt.Sprintf("migrated_bytes %d != %d", o.MigratedBytes, p.MigratedBytes)
	case o.Ticks != p.Ticks:
		return fmt.Sprintf("ticks %d != %d", o.Ticks, p.Ticks)
	case len(o.BEThroughput) != len(p.BEThroughput):
		return fmt.Sprintf("be count %d != %d", len(o.BEThroughput), len(p.BEThroughput))
	case string(o.Agent) != string(p.Agent):
		return "sac weights after pretraining differ"
	}
	for i := range o.BEThroughput {
		if o.BEThroughput[i] != p.BEThroughput[i] {
			return fmt.Sprintf("be[%d] throughput %v != %v", i, o.BEThroughput[i], p.BEThroughput[i])
		}
	}
	return ""
}

// outcomeOf projects a Runner result onto the compared fields.
func outcomeOf(res *sim.Result, agent []byte) cellOutcome {
	o := cellOutcome{
		LCViolations:  res.LCViolations,
		LCRequests:    res.LCRequests,
		MigratedBytes: res.MigratedBytes,
		Ticks:         res.Ticks,
		Agent:         agent,
	}
	for _, be := range res.BEs {
		o.BEThroughput = append(o.BEThroughput, be.Throughput)
	}
	return o
}

// cellTrace is one traced cell's per-layer split.
type cellTrace struct {
	eval, train layerTimes
	pretrain    time.Duration
	rlUpdates   int
}

// untracedCell runs a cell exactly as sim.RunCells does (spec → scenario →
// sim.NewPolicy → sim.RunScenarioContext), keeping the trained weights
// for the equality check.
func untracedCell(ctx context.Context, spec sim.RunSpec) (cellOutcome, error) {
	scn, err := spec.Scenario()
	if err != nil {
		return cellOutcome{}, err
	}
	pol, err := sim.NewPolicy(ctx, spec.PolicyName(), scn, spec.Episodes)
	if err != nil {
		return cellOutcome{}, err
	}
	var agent []byte
	if m, ok := pol.(*core.MTAT); ok {
		if agent, err = m.SaveAgent(); err != nil {
			return cellOutcome{}, err
		}
	}
	res, err := sim.RunScenarioContext(ctx, scn, pol)
	if err != nil {
		return cellOutcome{}, err
	}
	return outcomeOf(res, agent), nil
}

// tracedCell runs one cell through the copied loop, timing every layer.
// It mirrors sim.NewPolicy: MTAT variants pretrain under the Figure 7
// ramp at a 0.25 s tick before the evaluation run.
func tracedCell(ctx context.Context, spec sim.RunSpec) (cellOutcome, cellTrace, error) {
	var ct cellTrace
	scn, err := spec.Scenario()
	if err != nil {
		return cellOutcome{}, ct, err
	}
	var (
		pol      policy.Policy
		m        *core.MTAT
		interval float64
	)
	switch name := spec.PolicyName(); name {
	case "mtat-full", "mtat-lconly":
		variant := core.VariantFull
		if name == "mtat-lconly" {
			variant = core.VariantLCOnly
		}
		cfg, err := sim.MTATConfigFor(scn)
		if err != nil {
			return cellOutcome{}, ct, err
		}
		if m, err = core.New(variant, cfg); err != nil {
			return cellOutcome{}, ct, err
		}
		pol, interval = m, cfg.IntervalSeconds
		episodes := spec.Episodes
		if episodes <= 0 {
			episodes = sim.DefaultPretrainEpisodes
		}
		trainScn := scn
		trainScn.Load = loadgen.Fig7()
		trainScn.DurationSeconds = 0
		trainScn.TickSeconds = 0.25
		start := time.Now()
		updates0 := m.PPM().Agent().TotalUpdates()
		m.SetEvalMode(false)
		for ep := 0; ep < episodes; ep++ {
			m.ResetEpisode()
			epScn := trainScn
			epScn.Seed = trainScn.Seed + int64(ep)*1000
			if _, err := runTraced(ctx, epScn, m, m, interval, &ct.train); err != nil {
				return cellOutcome{}, ct, fmt.Errorf("pretrain episode %d: %w", ep, err)
			}
		}
		// PretrainMTATContext ends with a reset, and NewPolicy resets once
		// more before returning the policy.
		m.SetEvalMode(true)
		m.ResetEpisode()
		m.ResetEpisode()
		ct.pretrain = time.Since(start)
		ct.rlUpdates = m.PPM().Agent().TotalUpdates() - updates0
	default:
		if pol, err = sim.NewPolicy(ctx, name, scn, spec.Episodes); err != nil {
			return cellOutcome{}, ct, err
		}
	}
	var agent []byte
	if m != nil {
		if agent, err = m.SaveAgent(); err != nil {
			return cellOutcome{}, ct, err
		}
	}
	out, err := runTraced(ctx, scn, pol, m, interval, &ct.eval)
	if err != nil {
		return cellOutcome{}, ct, err
	}
	out.Agent = agent
	return out, ct, nil
}

// withDefaults mirrors sim.Scenario's unexported defaulting.
func withDefaults(s sim.Scenario) sim.Scenario {
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

// runTraced is the copied sim.Runner (NewRunner + RunContext) for a
// scenario with an LC workload. m is the policy as *core.MTAT (nil for a
// baseline); for MTAT the policy tick is split into its PP-E and PP-M
// calls with the decision interval given.
func runTraced(ctx context.Context, scn sim.Scenario, pol policy.Policy, m *core.MTAT, interval float64, lt *layerTimes) (cellOutcome, error) {
	scn = withDefaults(scn)
	if err := scn.Validate(); err != nil {
		return cellOutcome{}, err
	}
	if !scn.HasLC {
		return cellOutcome{}, fmt.Errorf("traced run needs an LC workload")
	}
	t := time.Now()
	sys, err := mem.NewSystem(scn.Mem)
	if err != nil {
		return cellOutcome{}, err
	}
	lc, err := workload.NewLC(sys, scn.LC, scn.LCInitialTier, scn.Seed+1)
	if err != nil {
		return cellOutcome{}, err
	}
	var bes []*workload.BE
	for _, bc := range scn.BEs {
		be, err := workload.NewBE(sys, bc, mem.TierSMem)
		if err != nil {
			return cellOutcome{}, err
		}
		bes = append(bes, be)
	}
	sampler, err := pebs.NewSampler(sys, scn.SampleRate, scn.Seed+2)
	if err != nil {
		return cellOutcome{}, err
	}
	pctx := &policy.Context{
		Sys:       sys,
		Sampler:   sampler,
		DT:        scn.TickSeconds,
		LC:        lc,
		BEs:       bes,
		BEResults: make([]workload.BETickResult, len(bes)),
	}
	if err := pol.Init(pctx); err != nil {
		return cellOutcome{}, err
	}
	lt.since(phBuild, t)

	dt := scn.TickSeconds
	ticks := int(math.Round(scn.DurationSeconds / dt))
	tickDur := time.Duration(dt * float64(time.Second))
	samples0, draws0 := sampler.TotalSamples(), lc.Queue().Draws()
	prom0, dem0 := sys.PromotedPages(), sys.DemotedPages()
	migStart := sys.MigratedBytes()

	var out cellOutcome
	beWork := make([]float64, len(bes))
	var measuredSeconds float64
	lastFrac, settleUntil, lastDecision := -1.0, 0.0, 0.0
	for i := 0; i < ticks; i++ {
		if err := ctx.Err(); err != nil {
			return cellOutcome{}, err
		}
		now := float64(i) * dt
		measuring := now >= scn.WarmupSeconds

		t = time.Now()
		sys.BeginTick(tickDur)
		lt.since(phBeginTick, t)
		t = time.Now()
		sampler.BeginTick()
		lt.since(phPEBS, t)

		frac := scn.Load.Frac(now)
		if frac != lastFrac {
			if lastFrac >= 0 && scn.SettleSeconds > 0 {
				settleUntil = now + scn.SettleSeconds
			}
			lastFrac = frac
		}
		if now < settleUntil {
			measuring = false
		}
		t = time.Now()
		lcRes, err := lc.Tick(frac, dt, pol.LCStall())
		lt.since(phLCTick, t)
		if err != nil {
			return cellOutcome{}, err
		}
		t = time.Now()
		sampler.RecordAccesses(lc.ID(), lc.Dist(), lcRes.Accesses)
		lt.since(phPEBS, t)
		pctx.LCResult = lcRes
		if measuring {
			out.LCRequests += lcRes.Completed + lcRes.Dropped
			out.LCViolations += lcRes.ViolationFrac * (lcRes.Completed + lcRes.Dropped)
		}
		for j, be := range bes {
			t = time.Now()
			beRes, err := be.Tick(dt)
			lt.since(phBETick, t)
			if err != nil {
				return cellOutcome{}, err
			}
			t = time.Now()
			sampler.RecordAccesses(be.ID(), be.Dist(), beRes.Accesses)
			lt.since(phPEBS, t)
			pctx.BEResults[j] = beRes
			if measuring {
				beWork[j] += beRes.Work
			}
		}
		if measuring {
			measuredSeconds += dt
		}

		pctx.Now = now
		if m == nil {
			t = time.Now()
			err := pol.Tick(pctx)
			lt.since(phPolicy, t)
			if err != nil {
				return cellOutcome{}, err
			}
			continue
		}
		// core.MTAT.Tick, call by call.
		t = time.Now()
		err = m.PPE().Tick(pctx)
		lt.since(phPPE, t)
		if err != nil {
			return cellOutcome{}, err
		}
		if now-lastDecision >= interval {
			t = time.Now()
			err := m.PPM().Decide(now)
			lt.since(phPPM, t)
			if err != nil {
				return cellOutcome{}, err
			}
			t = time.Now()
			m.PPE().ResetInterval()
			lt.since(phPPE, t)
			t = time.Now()
			sys.AgeHotness()
			lt.since(phAge, t)
			lastDecision = now
			lt.decisions++
		}
	}

	out.Ticks = ticks
	out.MigratedBytes = sys.MigratedBytes() - migStart
	if measuredSeconds > 0 {
		for j := range bes {
			out.BEThroughput = append(out.BEThroughput, beWork[j]/measuredSeconds)
		}
	}
	lt.ticks += ticks
	lt.samples += sampler.TotalSamples() - samples0
	lt.queueDraws += lc.Queue().Draws() - draws0
	lt.promoted += sys.PromotedPages() - prom0
	lt.demoted += sys.DemotedPages() - dem0
	return out, nil
}
