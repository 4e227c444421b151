package workload

import (
	"math"
	"testing"
	"time"

	"github.com/tieredmem/mtat/internal/mem"
)

// newLabSystem returns a memory system matching the paper's geometry.
func newLabSystem(t *testing.T) *mem.System {
	t.Helper()
	sys, err := mem.NewSystem(mem.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// smallSystem returns a tiny system for fast placement manipulation.
func smallSystem(t *testing.T) *mem.System {
	t.Helper()
	cfg := mem.Config{
		PageSize:           1 << 20,
		FMemBytes:          16 << 20,
		SMemBytes:          64 << 20,
		FMemLatency:        73 * time.Nanosecond,
		SMemLatency:        202 * time.Nanosecond,
		MigrationBandwidth: 1 << 30,
	}
	sys, err := mem.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestKindString(t *testing.T) {
	if KindLC.String() != "LC" || KindBE.String() != "BE" {
		t.Error("Kind.String() wrong")
	}
	if Kind(0).String() != "Kind(0)" {
		t.Error("invalid Kind should format as Kind(0)")
	}
}

func TestDistSpecBuild(t *testing.T) {
	cases := []struct {
		name    string
		spec    DistSpec
		wantErr bool
	}{
		{"uniform", DistSpec{Kind: DistUniform}, false},
		{"zipf", DistSpec{Kind: DistZipf, Theta: 1}, false},
		{"mix", DistSpec{Kind: DistZipfScanMix, Theta: 0.5, ScanWeight: 0.3}, false},
		{"mix bad weight", DistSpec{Kind: DistZipfScanMix, Theta: 0.5, ScanWeight: 1.5}, true},
		{"unknown", DistSpec{}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.spec.build(100)
			if (err != nil) != tc.wantErr {
				t.Errorf("build err = %v, wantErr = %v", err, tc.wantErr)
			}
		})
	}
}

func TestLCConfigValidate(t *testing.T) {
	base := RedisConfig()
	if err := base.Validate(); err != nil {
		t.Fatalf("Redis profile invalid: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*LCConfig)
	}{
		{"no name", func(c *LCConfig) { c.Name = "" }},
		{"zero rss", func(c *LCConfig) { c.RSSBytes = 0 }},
		{"zero servers", func(c *LCConfig) { c.Servers = 0 }},
		{"zero slo", func(c *LCConfig) { c.SLOSeconds = 0 }},
		{"zero max load", func(c *LCConfig) { c.MaxLoadRPS = 0 }},
		{"zero cpu", func(c *LCConfig) { c.CPUSeconds = 0 }},
		{"zero touches", func(c *LCConfig) { c.MemTouches = 0 }},
		{"bad service var", func(c *LCConfig) { c.ServiceVar = 2 }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			c := base
			m.mut(&c)
			if err := c.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestBEConfigValidate(t *testing.T) {
	base := SSSPConfig(4)
	if err := base.Validate(); err != nil {
		t.Fatalf("SSSP profile invalid: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*BEConfig)
	}{
		{"no name", func(c *BEConfig) { c.Name = "" }},
		{"zero rss", func(c *BEConfig) { c.RSSBytes = 0 }},
		{"zero cores", func(c *BEConfig) { c.Cores = 0 }},
		{"zero rate", func(c *BEConfig) { c.BaseRatePerCore = 0 }},
		{"negative miss weight", func(c *BEConfig) { c.MissWeight = -1 }},
		{"zero accesses", func(c *BEConfig) { c.AccessesPerWork = 0 }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			c := base
			m.mut(&c)
			if err := c.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestAllProfilesValidate(t *testing.T) {
	for _, c := range LCConfigs() {
		if err := c.Validate(); err != nil {
			t.Errorf("LC profile %s invalid: %v", c.Name, err)
		}
	}
	for _, c := range BEConfigs(4) {
		if err := c.Validate(); err != nil {
			t.Errorf("BE profile %s invalid: %v", c.Name, err)
		}
	}
}

func TestConfigByName(t *testing.T) {
	if c, ok := LCConfigByName("redis"); !ok || c.Name != "redis" {
		t.Error("LCConfigByName(redis) failed")
	}
	if _, ok := LCConfigByName("nope"); ok {
		t.Error("LCConfigByName(nope) succeeded")
	}
	if c, ok := BEConfigByName("xsbench", 2); !ok || c.Cores != 2 {
		t.Error("BEConfigByName(xsbench) failed")
	}
	if _, ok := BEConfigByName("nope", 2); ok {
		t.Error("BEConfigByName(nope) succeeded")
	}
}

func TestTable1Characteristics(t *testing.T) {
	// RSS values from Table 1, within half a page of the paper's GBs.
	want := map[string]struct {
		rssGiB  float64
		sloMS   float64
		maxKRPS float64
		servers int
	}{
		"redis":     {33.6, 20, 80, 1},
		"memcached": {31.4, 20, 1220, 8},
		"mongodb":   {33.2, 30, 125, 8},
		"silo":      {30.4, 15, 11, 1},
	}
	for _, c := range LCConfigs() {
		w, ok := want[c.Name]
		if !ok {
			t.Errorf("unexpected profile %s", c.Name)
			continue
		}
		if got := float64(c.RSSBytes) / float64(gib); math.Abs(got-w.rssGiB) > 0.01 {
			t.Errorf("%s RSS = %.2f GiB, want %.2f", c.Name, got, w.rssGiB)
		}
		if got := c.SLOSeconds * 1000; got != w.sloMS {
			t.Errorf("%s SLO = %g ms, want %g", c.Name, got, w.sloMS)
		}
		if got := c.MaxLoadRPS / 1000; got != w.maxKRPS {
			t.Errorf("%s max load = %g KRPS, want %g", c.Name, got, w.maxKRPS)
		}
		if c.Servers != w.servers {
			t.Errorf("%s servers = %d, want %d", c.Name, c.Servers, w.servers)
		}
	}
}

func TestLCCalibrationKneeNearMaxLoad(t *testing.T) {
	// For each LC profile, the analytic max stable load at full FMem
	// residency must fall within 10% of Table 1's Max Load, and the
	// SMem-only max load must fall in Figure 8's SMEM_ALL band (~0.65-0.85).
	sys := newLabSystem(t)
	for _, cfg := range LCConfigs() {
		lc, err := NewLC(sys, cfg, mem.TierSMem, 1)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		fullMax := lc.MaxStableLoadFrac(1, 0)
		if fullMax < 0.90 || fullMax > 1.10 {
			t.Errorf("%s max stable load at hit=1 is %.3f of Table 1 max, want 0.90-1.10",
				cfg.Name, fullMax)
		}
		smemMax := lc.MaxStableLoadFrac(0, 0)
		ratio := smemMax / fullMax
		if ratio < 0.65 || ratio > 0.85 {
			t.Errorf("%s SMem-only max = %.3f of FMem-only, want 0.65-0.85 (Fig. 8 band)",
				cfg.Name, ratio)
		}
	}
}

func TestLCHitRatioTracksPlacement(t *testing.T) {
	sys := smallSystem(t)
	cfg := RedisConfig()
	cfg.RSSBytes = 8 << 20 // 8 pages
	lc, err := NewLC(sys, cfg, mem.TierSMem, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := lc.HitRatio(); got != 0 {
		t.Fatalf("all-SMem hit ratio = %g, want 0", got)
	}
	sys.BeginTick(time.Second)
	pages := sys.WorkloadPages(lc.ID())
	for _, pid := range pages[:4] {
		if err := sys.Migrate(pid, mem.TierFMem); err != nil {
			t.Fatal(err)
		}
	}
	if got := lc.HitRatio(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("half-resident uniform hit ratio = %g, want 0.5", got)
	}
}

func TestLCServiceDistMoments(t *testing.T) {
	sys := smallSystem(t)
	cfg := RedisConfig()
	cfg.RSSBytes = 4 << 20
	lc, _ := NewLC(sys, cfg, mem.TierSMem, 1)
	s0 := lc.ServiceDist(0, 0)
	s1 := lc.ServiceDist(1, 0)
	if s1.Mean >= s0.Mean {
		t.Errorf("service mean at hit=1 (%g) should be below hit=0 (%g)", s1.Mean, s0.Mean)
	}
	wantFast := cfg.CPUSeconds + float64(cfg.MemTouches)*73e-9
	if math.Abs(s1.Mean-wantFast)/wantFast > 1e-9 {
		t.Errorf("fast service mean = %g, want %g", s1.Mean, wantFast)
	}
	// Extra stall adds linearly.
	sStall := lc.ServiceDist(1, 5e-6)
	if math.Abs(sStall.Mean-(s1.Mean+5e-6)) > 1e-12 {
		t.Errorf("stall not added: %g vs %g", sStall.Mean, s1.Mean+5e-6)
	}
	if got := s1.CV2(); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("CV2 = %g, want 0.25 for ServiceVar 0.5", got)
	}
}

func TestLCTick(t *testing.T) {
	sys := smallSystem(t)
	cfg := RedisConfig()
	cfg.RSSBytes = 8 << 20
	lc, err := NewLC(sys, cfg, mem.TierFMem, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lc.Tick(0.5, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantCompleted := 0.5 * cfg.MaxLoadRPS * 0.1
	if math.Abs(res.Completed-wantCompleted)/wantCompleted > 0.01 {
		t.Errorf("Completed = %g, want ~%g", res.Completed, wantCompleted)
	}
	wantAccesses := uint64(wantCompleted * float64(cfg.MemTouches))
	if res.Accesses < wantAccesses*99/100 || res.Accesses > wantAccesses*101/100 {
		t.Errorf("Accesses = %d, want ~%d", res.Accesses, wantAccesses)
	}
	if res.HitRatio != 1 {
		t.Errorf("HitRatio = %g, want 1 (fully FMem resident)", res.HitRatio)
	}
	if _, err := lc.Tick(-1, 0.1, 0); err == nil {
		t.Error("negative load accepted")
	}
}

func TestLCOverloadViolatesSLO(t *testing.T) {
	sys := smallSystem(t)
	cfg := RedisConfig()
	cfg.RSSBytes = 8 << 20
	lc, _ := NewLC(sys, cfg, mem.TierSMem, 42) // all SMem: slower service
	// Run at 120% of (FMem-calibrated) max load for 3 simulated seconds.
	var last TickResult
	var err error
	for i := 0; i < 30; i++ {
		last, err = lc.Tick(1.2, 0.1, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last.P99 < cfg.SLOSeconds {
		t.Errorf("P99 after overload = %g, want > SLO %g", last.P99, cfg.SLOSeconds)
	}
	if last.ViolationFrac < 0.5 {
		t.Errorf("ViolationFrac = %g, want > 0.5", last.ViolationFrac)
	}
	lc.ResetQueue()
	res, err := lc.Tick(0.2, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.P99 > cfg.SLOSeconds {
		t.Errorf("P99 after reset at low load = %g, want < SLO", res.P99)
	}
}

func TestMaxStableLoadMonotoneInHitRatio(t *testing.T) {
	sys := newLabSystem(t)
	lc, _ := NewLC(sys, RedisConfig(), mem.TierSMem, 1)
	prev := 0.0
	for _, h := range []float64{0, 0.25, 0.5, 0.75, 1} {
		got := lc.MaxStableLoadFrac(h, 0)
		if got < prev {
			t.Errorf("max stable load not monotone at hit=%g: %g < %g", h, got, prev)
		}
		prev = got
	}
	// Fault stalls reduce max load.
	noStall := lc.MaxStableLoadFrac(0.5, 0)
	withStall := lc.MaxStableLoadFrac(0.5, 20e-6)
	if withStall >= noStall {
		t.Errorf("stall did not reduce max load: %g vs %g", withStall, noStall)
	}
}

func TestBEThroughputModel(t *testing.T) {
	sys := smallSystem(t)
	cfg := SSSPConfig(4)
	cfg.RSSBytes = 8 << 20
	be, err := NewBE(sys, cfg, mem.TierSMem)
	if err != nil {
		t.Fatal(err)
	}
	full := be.PerfFull()
	want := 4 * cfg.BaseRatePerCore
	if math.Abs(full-want)/want > 1e-9 {
		t.Errorf("PerfFull = %g, want %g", full, want)
	}
	slow := be.ThroughputAt(0)
	if got := full / slow; math.Abs(got-(1+cfg.MissWeight)) > 1e-9 {
		t.Errorf("slowdown at hit=0 = %g, want %g", got, 1+cfg.MissWeight)
	}
	// Clamping.
	if be.ThroughputAt(-1) != slow || be.ThroughputAt(2) != full {
		t.Error("ThroughputAt does not clamp hit ratio")
	}
}

func TestBETickAccumulatesWork(t *testing.T) {
	sys := smallSystem(t)
	cfg := PRConfig(2)
	cfg.RSSBytes = 8 << 20
	be, _ := NewBE(sys, cfg, mem.TierSMem)
	res, err := be.Tick(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Work <= 0 || res.Throughput <= 0 || res.Accesses == 0 {
		t.Errorf("BE tick produced no progress: %+v", res)
	}
	if math.Abs(res.Work-res.Throughput*0.5) > 1e-6 {
		t.Errorf("Work (%g) != Throughput*dt (%g)", res.Work, res.Throughput*0.5)
	}
	if got := be.TotalWork(); got != res.Work {
		t.Errorf("TotalWork = %g, want %g", got, res.Work)
	}
	be.ResetWork()
	if be.TotalWork() != 0 {
		t.Error("ResetWork did not clear")
	}
	if _, err := be.Tick(0); err == nil {
		t.Error("zero dt accepted")
	}
}

func TestBEProfileThroughputMonotone(t *testing.T) {
	sys := newLabSystem(t)
	for _, cfg := range BEConfigs(4) {
		be, err := NewBE(sys, cfg, mem.TierSMem)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		total := sys.TotalPages(be.ID())
		prev := -1.0
		for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
			tp := be.ProfileThroughput(int(frac * float64(total)))
			if tp < prev {
				t.Errorf("%s profile throughput not monotone at %g", cfg.Name, frac)
			}
			prev = tp
		}
		if got := be.ProfileThroughput(total); math.Abs(got-be.PerfFull())/be.PerfFull() > 1e-9 {
			t.Errorf("%s profile at full residency = %g, want PerfFull %g",
				cfg.Name, got, be.PerfFull())
		}
	}
}

func TestBESkewDifferentiation(t *testing.T) {
	// PR (strong Zipf) must gain far more from a small FMem share than
	// XSBench (uniform): this asymmetry drives the fairness results.
	sys := newLabSystem(t)
	pr, _ := NewBE(sys, PRConfig(4), mem.TierSMem)
	xs, _ := NewBE(sys, XSBenchConfig(4), mem.TierSMem)
	tenthPR := pr.ProfileHitRatio(sys.TotalPages(pr.ID()) / 10)
	tenthXS := xs.ProfileHitRatio(sys.TotalPages(xs.ID()) / 10)
	if tenthPR < 2*tenthXS {
		t.Errorf("PR hit ratio at 10%% residency (%g) should dwarf XSBench's (%g)",
			tenthPR, tenthXS)
	}
}

func TestLCDeterminism(t *testing.T) {
	run := func() float64 {
		sys := smallSystem(t)
		cfg := MemcachedConfig()
		cfg.RSSBytes = 8 << 20
		lc, _ := NewLC(sys, cfg, mem.TierFMem, 77)
		var p99 float64
		for i := 0; i < 5; i++ {
			res, err := lc.Tick(0.8, 0.1, 0)
			if err != nil {
				t.Fatal(err)
			}
			p99 = res.P99
		}
		return p99
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same-seed LC runs differ: %g vs %g", a, b)
	}
}

func TestLCClientTimeoutDefault(t *testing.T) {
	// Default timeout is 5x SLO: under sustained overload the queue's
	// backlog delay (and so P99) must plateau near that bound instead of
	// diverging.
	sys := smallSystem(t)
	cfg := RedisConfig()
	cfg.RSSBytes = 8 << 20
	lc, _ := NewLC(sys, cfg, mem.TierSMem, 5)
	var last TickResult
	for i := 0; i < 100; i++ {
		var err error
		last, err = lc.Tick(1.5, 0.1, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	bound := 5 * cfg.SLOSeconds
	if last.P99 > bound*1.5 {
		t.Errorf("P99 = %g, want plateau near client timeout %g", last.P99, bound)
	}
	if last.Dropped == 0 {
		t.Error("sustained overload dropped nothing")
	}
	// Explicit timeout override takes effect.
	cfg2 := RedisConfig()
	cfg2.RSSBytes = 8 << 20
	cfg2.ClientTimeoutSeconds = 0.010 // tighter than the SLO
	lc2, _ := NewLC(sys, cfg2, mem.TierSMem, 5)
	var last2 TickResult
	for i := 0; i < 100; i++ {
		last2, _ = lc2.Tick(1.5, 0.1, 0)
	}
	if last2.P99 > 0.03 {
		t.Errorf("tight timeout P99 = %g, want < 30ms", last2.P99)
	}
}

// LC.Tick and the knee search allocate nothing per tick or per bisection
// step: the service distribution is a value.
func TestLCTickDoesNotAllocate(t *testing.T) {
	sys := smallSystem(t)
	cfg := RedisConfig()
	cfg.RSSBytes = 8 << 20
	lc, err := NewLC(sys, cfg, mem.TierFMem, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := lc.Tick(0.5, 0.1, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("allocs per LC.Tick = %g, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { lc.MaxStableLoadFrac(0.8, 0) }); n != 0 {
		t.Errorf("allocs per MaxStableLoadFrac = %g, want 0", n)
	}
}
