package pebs

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/tieredmem/mtat/internal/dist"
	"github.com/tieredmem/mtat/internal/mem"
)

func newAllocBenchSampler(tb testing.TB) (*Sampler, mem.WorkloadID, dist.Distribution) {
	tb.Helper()
	cfg := mem.Config{
		PageSize:           4 << 20,
		FMemBytes:          2 << 30,
		SMemBytes:          16 << 30,
		FMemLatency:        73 * time.Nanosecond,
		SMemLatency:        202 * time.Nanosecond,
		MigrationBandwidth: 1 << 40,
	}
	sys, err := mem.NewSystem(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	w, err := sys.AddWorkload(8<<30, mem.TierFMem)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := dist.NewZipf(1<<20, 0.99)
	if err != nil {
		tb.Fatal(err)
	}
	return mustSampler(tb, sys), w, d
}

func mustSampler(tb testing.TB, sys *mem.System) *Sampler {
	tb.Helper()
	s, err := NewSampler(sys, 0.05, 42)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestTickPathZeroAllocs pins the satellite requirement: once the sampler's
// scratch buffers are warm, a full BeginTick+RecordAccesses tick performs
// zero heap allocations. The seed implementation rebuilt a
// map[mem.PageID]struct{} every tick; the generation-stamped dense slice
// must not regress back to that.
func TestTickPathZeroAllocs(t *testing.T) {
	s, w, d := newAllocBenchSampler(t)
	// Warm up scratch buffers (seen slice, draws, tickPages).
	for i := 0; i < 8; i++ {
		s.BeginTick()
		s.RecordAccesses(w, d, 200_000)
	}
	allocs := testing.AllocsPerRun(32, func() {
		s.BeginTick()
		s.RecordAccesses(w, d, 200_000)
	})
	if allocs != 0 {
		t.Fatalf("tick path allocs/op = %g, want 0", allocs)
	}
}

// TestTickPagesMatchesReferenceDedup checks the generation-stamped dedup
// yields the same unique pages, in the same first-sample order, as the
// retained map-based reference path, over many ticks with an identical
// RNG stream.
func TestTickPagesMatchesReferenceDedup(t *testing.T) {
	fast, wf, df := newAllocBenchSampler(t)
	ref, wr, dr := newAllocBenchSampler(t)
	ref.SetReference(true)

	rng := rand.New(rand.NewSource(99))
	for tick := 0; tick < 50; tick++ {
		n := uint64(1_000 + rng.Intn(100_000))
		fast.BeginTick()
		ref.BeginTick()
		fast.RecordAccesses(wf, df, n)
		ref.RecordAccesses(wr, dr, n)

		fp, rp := fast.TickPages(wf), ref.TickPages(wr)
		if len(fp) != len(rp) {
			t.Fatalf("tick %d: fast %d pages, ref %d pages", tick, len(fp), len(rp))
		}
		for i := range fp {
			if fp[i] != rp[i] {
				t.Fatalf("tick %d: page[%d] fast=%d ref=%d", tick, i, fp[i], rp[i])
			}
		}
		if fast.TickFMemAccesses(wf) != ref.TickFMemAccesses(wr) ||
			fast.TickSMemAccesses(wf) != ref.TickSMemAccesses(wr) {
			t.Fatalf("tick %d: tier counts diverge: fast %d/%d ref %d/%d", tick,
				fast.TickFMemAccesses(wf), fast.TickSMemAccesses(wf),
				ref.TickFMemAccesses(wr), ref.TickSMemAccesses(wr))
		}
	}
}

// TestGenerationWraparound forces the per-tick generation counter through
// a uint32 wrap and checks stale stamps cannot leak a page into a later
// tick's unique-page list.
func TestGenerationWraparound(t *testing.T) {
	s, w, d := newAllocBenchSampler(t)
	s.BeginTick()
	s.RecordAccesses(w, d, 100_000)
	before := len(s.TickPages(w))
	if before == 0 {
		t.Fatal("no pages sampled")
	}

	s.gen = ^uint32(0) // next BeginTick wraps to 0 and must reset
	s.BeginTick()
	if s.gen != 1 {
		t.Fatalf("gen after wraparound = %d, want 1", s.gen)
	}
	for pid, g := range s.seen {
		if g != 0 {
			t.Fatalf("seen[%d] = %d after wraparound, want 0", pid, g)
		}
	}
	s.RecordAccesses(w, d, 100_000)
	if got := len(s.TickPages(w)); got == 0 {
		t.Fatal("no pages recorded after wraparound")
	}
}

// BenchmarkRecordTick is the BenchmarkDraw-style regression benchmark for
// the satellite: it reports allocs/op for the full tick path so any
// reintroduced per-tick allocation is visible in benchmark output.
func BenchmarkRecordTick(b *testing.B) {
	s, w, d := newAllocBenchSampler(b)
	s.BeginTick()
	s.RecordAccesses(w, d, 200_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BeginTick()
		s.RecordAccesses(w, d, 200_000)
	}
}

// TestFusedPassMatchesReference runs the fast sampler (inlinable rng copy,
// batched draws, one fused filing pass) and the reference sampler
// (math/rand, full-CDF draws, map dedup) side by side over the page
// geometry of a paper-scale and a scale-16 cell: workloads whose page
// ranges start and end mid-word, with the simulator's distribution shapes
// over exactly their pages, between page migrations and agings. Hotness,
// tier counts and tick pages must agree tick by tick.
func TestFusedPassMatchesReference(t *testing.T) {
	for _, scale := range []int{1, 16} {
		t.Run(fmt.Sprintf("scale%d", scale), func(t *testing.T) {
			build := func() (*mem.System, *Sampler, []mem.WorkloadID, []dist.Distribution) {
				cfg := mem.DefaultConfig()
				cfg.FMemBytes /= int64(scale)
				cfg.SMemBytes /= int64(scale)
				sys, err := mem.NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Redis-, SSSP-, PR- and BFS-sized workloads (in pages at
				// paper scale), the first two starting in FMem.
				var ids []mem.WorkloadID
				var ds []dist.Distribution
				for i, pages := range []int{3061, 9088, 6109, 7939} {
					tier := mem.TierSMem
					if i < 2 {
						tier = mem.TierFMem
					}
					id, err := sys.AddWorkload(int64(pages/scale)*cfg.PageSize, tier)
					if err != nil {
						t.Fatal(err)
					}
					n := sys.TotalPages(id)
					var d dist.Distribution
					switch i {
					case 0:
						d, err = dist.NewUniform(n)
					case 1:
						d, err = dist.NewZipf(n, 0.7)
					case 2:
						d, err = dist.NewZipf(n, 1.05)
					case 3:
						z, _ := dist.NewZipf(n, 0.55)
						s, _ := dist.NewScan(n)
						d, err = dist.NewMixture([]dist.Distribution{z, s}, []float64{0.7, 0.3})
					}
					if err != nil {
						t.Fatal(err)
					}
					ids, ds = append(ids, id), append(ds, d)
				}
				s, err := NewSampler(sys, 0.01, 77)
				if err != nil {
					t.Fatal(err)
				}
				return sys, s, ids, ds
			}
			fsys, fast, ids, fds := build()
			rsys, ref, _, rds := build()
			ref.SetReference(true)
			rsys.SetReference(true)
			for _, w := range ids {
				if lo, _ := fsys.WorkloadRange(w); w > 0 && lo%64 == 0 {
					t.Fatalf("workload %d starts on a word boundary; the geometry no longer tests mid-word ranges", w)
				}
			}

			mig := rand.New(rand.NewSource(5))
			for tick := 0; tick < 200; tick++ {
				fast.BeginTick()
				ref.BeginTick()
				fsys.BeginTick(100 * time.Millisecond)
				rsys.BeginTick(100 * time.Millisecond)
				for i, w := range ids {
					n := uint64(20_000 + mig.Intn(400_000))
					fast.RecordAccesses(w, fds[i], n)
					ref.RecordAccesses(w, rds[i], n)
					if !slices.Equal(fast.TickPages(w), ref.TickPages(w)) ||
						fast.TickFMemAccesses(w) != ref.TickFMemAccesses(w) ||
						fast.TickSMemAccesses(w) != ref.TickSMemAccesses(w) {
						t.Fatalf("tick %d workload %d: fast %d pages %d/%d, reference %d pages %d/%d", tick, w,
							len(fast.TickPages(w)), fast.TickFMemAccesses(w), fast.TickSMemAccesses(w),
							len(ref.TickPages(w)), ref.TickFMemAccesses(w), ref.TickSMemAccesses(w))
					}
				}
				// Move a few pages between tiers and age now and then, so
				// later ticks file samples against a changing placement.
				for i := 0; i < 20; i++ {
					pid := mem.PageID(mig.Intn(fsys.NumPages()))
					to := mem.TierFMem
					if fsys.PageInFMem(pid) {
						to = mem.TierSMem
					}
					ferr, rerr := fsys.Migrate(pid, to), rsys.Migrate(pid, to)
					if ferr != rerr {
						t.Fatalf("tick %d: migrate %d: fast %v, reference %v", tick, pid, ferr, rerr)
					}
				}
				if tick%20 == 19 {
					fsys.AgeHotness()
					rsys.AgeHotness()
				}
			}
			for pid := 0; pid < fsys.NumPages(); pid++ {
				if f, r := fsys.PageHotness(mem.PageID(pid)), rsys.PageHotness(mem.PageID(pid)); f != r {
					t.Fatalf("page %d: fast hotness %d, reference %d", pid, f, r)
				}
			}
			if fast.TotalSamples() != ref.TotalSamples() {
				t.Fatalf("fast drew %d samples, reference %d", fast.TotalSamples(), ref.TotalSamples())
			}
		})
	}
}
