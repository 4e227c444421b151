// Command corebench micro-benchmarks the simulator-core hot paths — page
// migration, hotness aging and the hotness-ranked partition split (mem),
// Zipf draws (dist), PEBS sampling (pebs), the queue-model tick (queue),
// and recording a flight event into the run trace — at a fixed geometry,
// so numbers stay comparable across runs. It is the repo's one host-timed
// benchmark runner; its report is the perf baseline (BENCH_core.json):
// CI re-runs it on every PR and fails on gross (>2×) ns/op or allocs/op
// regressions via Compare.
//
// Usage:
//
//	corebench [-out dir] [-baseline BENCH_core.json]
//
// -out writes dir/BENCH_core.json; -baseline gates this run's report
// against a committed one and exits 1 on any regression.
package main

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/tieredmem/mtat/internal/dist"
	"github.com/tieredmem/mtat/internal/mem"
	"github.com/tieredmem/mtat/internal/pebs"
	"github.com/tieredmem/mtat/internal/queue"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// Fixed benchmark geometry. Deliberately NOT derived from any experiment
// scale: a perf baseline is only comparable if every run measures the
// same work.
const (
	benchPageSize  = 4 << 20  // 4 MiB bookkeeping pages
	benchFMemBytes = 2 << 30  // 512 FMem pages
	benchSMemBytes = 16 << 30 // 4096 SMem pages
	benchRSSBytes  = 8 << 30  // 2048-page benchmark workload
	benchSeed      = 42
)

// Result is one benchmark's measurement — the unit of the committed
// perf baseline.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is the full suite output, serialized as BENCH_core.json.
type Report struct {
	// Go is the toolchain that produced the numbers (informational; the
	// comparison gate ignores it).
	Go string `json:"go,omitempty"`
	// Generated is an RFC 3339 timestamp (informational).
	Generated string   `json:"generated,omitempty"`
	Results   []Result `json:"results"`
}

// Find returns the named result and whether it exists.
func (r Report) Find(name string) (Result, bool) {
	for _, res := range r.Results {
		if res.Name == name {
			return res, true
		}
	}
	return Result{}, false
}

// Bench is one named hot-path benchmark.
type Bench struct {
	Name string
	Run  func(b *testing.B)
}

// Benches returns the core hot-path suite in report order. Each setup
// error surfaces as a panic inside testing.Benchmark; the geometry is
// compile-time constant, so that can only happen if the packages'
// validation rules change.
func Benches() []Bench {
	return []Bench{
		{"mem/migrate", benchMemMigrate},
		{"mem/exchange", benchMemExchange},
		{"mem/age", benchMemAge},
		{"mem/age_ref", benchMemAgeRef},
		{"mem/split", benchMemSplit},
		{"mem/split_ref", benchMemSplitRef},
		{"dist/zipf", benchDistZipf},
		{"dist/zipf_ref", benchDistZipfRef},
		{"pebs/record", benchPEBSRecord},
		{"pebs/record_ref", benchPEBSRecordRef},
		{"queue/tick", benchQueueTick},
		{"queue/tick_ref", benchQueueTickRef},
		{"queue/quantile", benchQueueQuantile},
		{"queue/quantile_ref", benchQueueQuantileRef},
		{"flight/record", benchFlightRecord},
	}
}

// Measure executes the full suite and assembles the report. Each
// benchmark runs under testing.Benchmark (~1 s of measurement per entry).
func Measure() Report {
	var rep Report
	for _, b := range Benches() {
		res := testing.Benchmark(b.Run)
		rep.Results = append(rep.Results, Result{
			Name:        b.Name,
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
	}
	return rep
}

// benchSystem builds the fixed-geometry memory system with one resident
// workload and deterministic per-page hotness.
func benchSystem() (*mem.System, mem.WorkloadID) {
	cfg := mem.DefaultConfig()
	cfg.PageSize = benchPageSize
	cfg.FMemBytes = benchFMemBytes
	cfg.SMemBytes = benchSMemBytes
	sys, err := mem.NewSystem(cfg)
	if err != nil {
		panic(fmt.Sprintf("corebench: %v", err))
	}
	w, err := sys.AddWorkload(benchRSSBytes, mem.TierFMem)
	if err != nil {
		panic(fmt.Sprintf("corebench: %v", err))
	}
	for i, pid := range sys.WorkloadPages(w) {
		sys.AddHotness(pid, uint64(i%4096))
	}
	return sys, w
}

// benchMemMigrate ping-pongs one page between tiers: the tightest
// Migrate loop (bookkeeping + budget metering, no slice traffic).
func benchMemMigrate(b *testing.B) {
	sys, w := benchSystem()
	pid := sys.WorkloadPages(w)[0]
	sys.BeginTick(time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		to := mem.TierSMem
		if sys.Page(pid).Tier == mem.TierSMem {
			to = mem.TierFMem
		}
		if err := sys.Migrate(pid, to); err != nil {
			sys.BeginTick(time.Second) // budget exhausted; refill and retry
			i--
		}
	}
}

// benchMemExchange swaps a 64-page promote set against a 64-page demote
// set — the partition-replacement inner loop (§3.3.2).
func benchMemExchange(b *testing.B) {
	sys, w := benchSystem()
	pages := sys.WorkloadPages(w)
	fmem := sys.FMemPages(w)
	const batch = 64
	demote := append([]mem.PageID(nil), pages[:batch]...)           // FMem-resident head
	promote := append([]mem.PageID(nil), pages[fmem:fmem+batch]...) // SMem-resident tail
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.BeginTick(time.Second)
		sys.Exchange(promote, demote)
		promote, demote = demote, promote
	}
}

// benchMemAge measures one AgeHotness pass over the 2048-page workload on
// the default lazy-epoch path: an O(1) epoch bump, plus the hotness
// index's one-bin shift in O(bitset words).
func benchMemAge(b *testing.B) {
	sys, _ := benchSystem()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.AgeHotness()
	}
}

// benchMemAgeRef measures the same pass on the retained reference path —
// the seed core's eager O(pages) halving sweep. The mem/age vs
// mem/age_ref gap is the headline win of the lazy-aging rewrite.
func benchMemAgeRef(b *testing.B) {
	sys, _ := benchSystem()
	sys.SetReference(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.AgeHotness()
	}
}

// benchMemSplit measures the MEMTIS-shaped hot/cold split (Fig. 4b): rank
// the 2048-page workload by hotness, keep the hottest FMem-capacity pages,
// and list the promotions and demotions that takes — read from the
// hotness index.
func benchMemSplit(b *testing.B) {
	benchSplit(b, false)
}

// benchMemSplitRef is benchMemSplit on the retained reference path, a
// histogram rebuild over every page per split, for side-by-side evidence
// in the report.
func benchMemSplitRef(b *testing.B) {
	benchSplit(b, true)
}

func benchSplit(b *testing.B, reference bool) {
	sys, w := benchSystem()
	sys.SetReference(reference)
	ids := []mem.WorkloadID{w}
	var promote, demote []mem.PageID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		promote, demote = sys.HotSplit(ids, sys.FMemCapacityPages(), promote[:0], demote[:0])
	}
}

// benchZipf is the Zipfian popularity the dist and pebs benchmarks draw
// from.
func benchZipf() *dist.Zipf {
	d, err := dist.NewZipf(1<<20, 0.99)
	if err != nil {
		panic(fmt.Sprintf("corebench: %v", err))
	}
	return d
}

// benchDistZipf measures one Zipf draw: the guide-table bucket search.
func benchDistZipf(b *testing.B) {
	d := benchZipf()
	rng := rand.New(rand.NewSource(benchSeed))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Sample(rng)
	}
}

// benchDistZipfRef is benchDistZipf on the retained reference path (a
// binary search over the whole CDF), for side-by-side evidence in the
// report.
func benchDistZipfRef(b *testing.B) {
	d := benchZipf()
	rng := rand.New(rand.NewSource(benchSeed))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.SampleReference(d, rng)
	}
}

// benchPEBSRecord samples 10k logical accesses at a 1% rate through a
// Zipfian popularity — one workload-tick of PP-E sampling.
func benchPEBSRecord(b *testing.B) {
	sys, w := benchSystem()
	sampler, err := pebs.NewSampler(sys, 0.01, benchSeed)
	if err != nil {
		panic(fmt.Sprintf("corebench: %v", err))
	}
	d := benchZipf()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampler.BeginTick()
		sampler.RecordAccesses(w, d, 10_000)
	}
}

// benchPEBSRecordRef is benchPEBSRecord on the sampler's retained
// reference paths (the seed core's per-tick dedup map and full-CDF Zipf
// search), for side-by-side evidence in the report.
func benchPEBSRecordRef(b *testing.B) {
	sys, w := benchSystem()
	sampler, err := pebs.NewSampler(sys, 0.01, benchSeed)
	if err != nil {
		panic(fmt.Sprintf("corebench: %v", err))
	}
	sampler.SetReference(true)
	d := benchZipf()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampler.BeginTick()
		sampler.RecordAccesses(w, d, 10_000)
	}
}

// benchQueueTick runs one M/G/c tick (Erlang-C + 2048 Monte Carlo sojourn
// draws) at 80% utilization — the LC latency model's per-tick cost.
func benchQueueTick(b *testing.B) {
	m, err := queue.NewModel(16, benchSeed)
	if err != nil {
		panic(fmt.Sprintf("corebench: %v", err))
	}
	svc := queue.ExponentialService(500e-6)
	rate := 0.8 * 16 / 500e-6
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Tick(rate, 0.1, svc, 0.002); err != nil {
			panic(fmt.Sprintf("corebench: %v", err))
		}
		m.ResetBacklog()
	}
}

// benchQueueTickRef is benchQueueTick on the retained reference paths
// (full shell sort, math/rand's own generator), for side-by-side evidence
// in the report.
func benchQueueTickRef(b *testing.B) {
	m, err := queue.NewModel(16, benchSeed)
	if err != nil {
		panic(fmt.Sprintf("corebench: %v", err))
	}
	m.SetReference(true)
	svc := queue.ExponentialService(500e-6)
	rate := 0.8 * 16 / 500e-6
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Tick(rate, 0.1, svc, 0.002); err != nil {
			panic(fmt.Sprintf("corebench: %v", err))
		}
		m.ResetBacklog()
	}
}

// benchQuantileDraws builds one tick's worth of deterministic sojourn
// draws for the quantile-kernel benchmarks (2048, matching the Monte
// Carlo buffer the queue model extracts quantiles from every tick).
func benchQuantileDraws() []float64 {
	draws := make([]float64, 2048)
	x := uint64(benchSeed)
	for i := range draws {
		x = x*6364136223846793005 + 1442695040888963407
		draws[i] = float64(x>>11) / (1 << 53)
	}
	return draws
}

// benchQueueQuantile measures the per-tick quantile kernel in isolation
// (quickselect for P50 then P99). Tick-level numbers are dominated by
// draw generation, which both quantile paths share; this pair isolates
// the sort→select swap. The pristine buffer is re-copied each iteration
// because the kernel reorders it in place.
func benchQueueQuantile(b *testing.B) {
	m, err := queue.NewModel(16, benchSeed)
	if err != nil {
		panic(fmt.Sprintf("corebench: %v", err))
	}
	pristine := benchQuantileDraws()
	draws := make([]float64, len(pristine))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(draws, pristine)
		m.Quantiles(draws)
	}
}

// benchQueueQuantileRef is benchQueueQuantile on the retained reference
// path (full shell sort), for side-by-side evidence in the report.
func benchQueueQuantileRef(b *testing.B) {
	m, err := queue.NewModel(16, benchSeed)
	if err != nil {
		panic(fmt.Sprintf("corebench: %v", err))
	}
	m.SetReference(true)
	pristine := benchQuantileDraws()
	draws := make([]float64, len(pristine))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(draws, pristine)
		m.Quantiles(draws)
	}
}

// benchFlightRecord measures recording one flight event — a tracer emit
// of a promotion with no sink installed, into a full ring the size of
// mtatd's per-run trace — the cost every core event pays when a run is
// traced.
func benchFlightRecord(b *testing.B) {
	const capacity = 1 << 12
	tr := telemetry.NewTracer(capacity)
	for i := 0; i < capacity; i++ { // grow the ring: time the steady state
		tr.Emit(0, telemetry.EvPromotion, telemetry.WLNone, telemetry.F("pages", 1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Emit(float64(i), telemetry.EvPromotion, telemetry.WLNone, telemetry.F("pages", 1))
	}
}
