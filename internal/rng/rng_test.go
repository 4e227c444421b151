package rng

import (
	"math"
	"math/rand"
	"testing"
)

// intnArgs are the Intn bounds the stream tests draw with: powers of two
// (the masked path), small and large odd bounds, and 2^31-1, whose
// rejection threshold makes redraws frequent enough to exercise.
var intnArgs = []int{1, 2, 7, 64, 100, 540, 9088, 1 << 20, 1<<30 + 1, 1<<31 - 1}

// numOps is the number of draw kinds step exercises.
const numOps = 9

// expPaths counts, across the stream tests, how often op 8's exponential
// draw left ExpFast for each of ExpSlow's paths: the tail beyond re
// (i == 0) and the fe rejection test.
var expPaths struct{ tail, fe int }

// step applies op to both generators and reports whether they agree.
// std is rand.New(rand.NewSource(seed)); s started from the same seed.
func step(s *Source, std *rand.Rand, op byte) (got, want float64, ok bool) {
	switch op % numOps {
	case 0:
		got, want = s.Float64(), std.Float64()
	case 1:
		n := intnArgs[int(op>>3)%len(intnArgs)]
		got, want = float64(s.Intn(n)), float64(std.Intn(n))
	case 2:
		got, want = s.Rand().ExpFloat64(), std.ExpFloat64()
	case 3:
		got, want = s.Rand().NormFloat64(), std.NormFloat64()
	case 4:
		a, b := s.Int63(), std.Int63()
		return float64(a), float64(b), a == b
	case 5:
		a, b := s.Uint64(), std.Uint64()
		return float64(a), float64(b), a == b
	case 6:
		got, want = s.Rand().Float64(), std.Float64()
	case 7:
		got, want = s.ExpFloat64(), std.ExpFloat64()
	case 8: // ExpFloat64 as a hot loop inlines it
		j := s.Uint32()
		x, fast := ExpFast(j)
		if !fast {
			if j&0xFF == 0 {
				expPaths.tail++
			} else {
				expPaths.fe++
			}
			x = s.ExpSlow(j)
		}
		got, want = x, std.ExpFloat64()
		if a, b := s.Uint32(), std.Uint32(); a != b {
			return float64(a), float64(b), false
		}
	}
	return got, want, math.Float64bits(got) == math.Float64bits(want)
}

// TestStreamMatchesMathRand draws 10^7 mixed values from Source and from
// math/rand for several seeds, reseeding both half way. Every draw must be
// bit-equal. Each seed's run spans thousands of 607-output register
// cycles, and the exponential draws reach both of ExpSlow's paths: the
// tail comes up about 4.5e-4 per draw, the fe test about 2.2e-2.
func TestStreamMatchesMathRand(t *testing.T) {
	expPaths.tail, expPaths.fe = 0, 0
	defer func() {
		t.Logf("ExpSlow entries: %d tail, %d fe test", expPaths.tail, expPaths.fe)
		if !t.Failed() && (expPaths.tail < 100 || expPaths.fe < 100) {
			t.Errorf("ExpSlow entries: %d tail, %d fe test; want >= 100 of each", expPaths.tail, expPaths.fe)
		}
	}()
	seeds := []int64{0, 1, -7, 1 << 40}
	const perSeed = 10_000_000 / 4
	for _, seed := range seeds {
		s, std := New(seed), rand.New(rand.NewSource(seed))
		x := uint64(seed) | 1 // op selector: an LCG independent of both streams
		for i := 0; i < perSeed; i++ {
			if i == perSeed/2 {
				s.Seed(seed + 1)
				std.Seed(seed + 1)
			}
			x = x*6364136223846793005 + 1442695040888963407
			op := byte(x >> 56)
			if got, want, ok := step(s, std, op); !ok {
				t.Fatalf("seed %d draw %d op %d: got %v, math/rand %v", seed, i, op%numOps, got, want)
			}
		}
	}
}

// Reseeding through the wrapping rand.Rand must restart the shared state.
func TestRandSeedRestartsStream(t *testing.T) {
	s := New(3)
	for i := 0; i < 1000; i++ {
		s.Float64()
	}
	s.Rand().Seed(3)
	std := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		if got, want := s.Int63(), std.Int63(); got != want {
			t.Fatalf("draw %d after Rand().Seed: got %d, want %d", i, got, want)
		}
	}
}

func TestIntnRejectsOutOfRange(t *testing.T) {
	for _, n := range []int{0, -1, 1 << 31} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

// NewReference is math/rand's generator, counted.
func TestReferenceIsMathRand(t *testing.T) {
	before := ReferenceDraws()
	ref, std := NewReference(9), rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		if got, want := ref.NormFloat64(), std.NormFloat64(); got != want {
			t.Fatalf("draw %d: reference %v, math/rand %v", i, got, want)
		}
		if got, want := ref.Uint64(), std.Uint64(); got != want {
			t.Fatalf("draw %d: reference %d, math/rand %d", i, got, want)
		}
	}
	if n := ReferenceDraws() - before; n < 10000 {
		t.Errorf("ReferenceDraws grew by %d, want >= 10000", n)
	}
}

// The draws the hot loops make must not allocate.
func TestDrawsDoNotAllocate(t *testing.T) {
	s := New(5)
	if n := testing.AllocsPerRun(100, func() {
		s.Float64()
		s.Intn(9088)
		s.Uint32()
		s.ExpFloat64()
		s.Rand().ExpFloat64()
	}); n != 0 {
		t.Errorf("allocs per draw = %g, want 0", n)
	}
}

// FuzzRNGStream checks an arbitrary op sequence from an arbitrary seed
// against math/rand.
func FuzzRNGStream(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(-7), []byte{9, 17, 25, 33, 41, 49, 57, 65, 73, 81})
	f.Add(int64(1<<40), make([]byte, 1300))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		s, std := New(seed), rand.New(rand.NewSource(seed))
		if len(ops) == 0 {
			return
		}
		// Repeat the sequence so that short inputs still cross two
		// register cycles.
		for rep, drawn := 0, 0; drawn < 2*lag; rep++ {
			for i, op := range ops {
				drawn++
				if got, want, ok := step(s, std, op); !ok {
					t.Fatalf("rep %d op %d (%d): got %v, math/rand %v", rep, i, op%numOps, got, want)
				}
			}
		}
	})
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += s.Float64()
	}
	_ = sum
}

func BenchmarkMathRandFloat64(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += r.Float64()
	}
	_ = sum
}
