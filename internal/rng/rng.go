// Package rng is an inlinable copy of math/rand's default source.
// New(seed) yields exactly the stream of rand.NewSource(seed), and Source's
// Float64, Int63, Uint32, Intn and ExpFloat64 repeat math/rand.Rand's
// arithmetic (ExpFloat64 with the stdlib's ziggurat tables, exp.go), so a
// hot loop can draw through direct, inlinable calls instead of the
// interface dispatch inside rand.Rand without changing a single value.
// Source implements rand.Source64, so the one draw it does not copy
// (NormFloat64) stays on a rand.Rand over the same state (Source.Rand).
//
// math/rand's source is the additive lagged Fibonacci generator
// y[k] = y[k-607] + y[k-273] (mod 2^64). Source takes the first 607
// outputs from the stdlib source itself, so the stdlib's seeding stays
// authoritative, solves the recurrence backwards for the 607 values before
// them, and then advances it one output per draw in place. Advancing per
// draw, rather than refilling 607 outputs at a time, keeps a refill call
// out of the draw: with one, Float64 would exceed the compiler's inlining
// budget.
package rng

import (
	"math/rand"
	"sync/atomic"
)

const (
	lag  = 607 // the long lag: the register length
	tap  = 273 // the short lag
	mask = 1<<63 - 1
)

// Source is a math/rand-compatible generator. It is not safe for
// concurrent use.
type Source struct {
	vec [lag]int64 // vec[k mod lag] holds y[k] for the last lag outputs k
	pos int        // k mod lag for the next output k
	std *rand.Rand // a math/rand.Rand drawing from this source
}

var _ rand.Source64 = (*Source)(nil)

// New returns a source positioned where rand.NewSource(seed) starts.
func New(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	s.std = rand.New(s)
	return s
}

// Seed implements rand.Source: it restarts the stream at
// rand.NewSource(seed)'s first output.
func (s *Source) Seed(seed int64) {
	var y [lag + 1]int64 // y[k] for k = 1..lag: the stdlib's first outputs
	std := rand.NewSource(seed).(rand.Source64)
	for k := 1; k <= lag; k++ {
		y[k] = int64(std.Uint64())
	}
	// y[k-lag] = y[k] - y[k-tap]. For k > tap the right side is a drained
	// output; for k <= tap, y[k-tap] is one of the values the first loop
	// solved for (k-tap in [1-tap, 0]).
	at := func(k int) *int64 { return &s.vec[(k%lag+lag)%lag] }
	for k := lag; k > tap; k-- {
		*at(k - lag) = y[k] - y[k-tap]
	}
	for k := tap; k >= 1; k-- {
		*at(k - lag) = y[k] - *at(k - tap)
	}
	s.pos = 1
}

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	i := s.pos
	j := i - tap
	if j < 0 {
		j += lag
	}
	x := s.vec[i] + s.vec[j]
	s.vec[i] = x
	if i++; i == lag {
		i = 0
	}
	s.pos = i
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() & mask) }

// Uint32 returns rand.Rand.Uint32's next value on this stream.
func (s *Source) Uint32() uint32 { return uint32(s.Int63() >> 31) }

// Float64 returns rand.Rand.Float64's next value on this stream: a float in
// [0, 1), redrawn in the rare case the division rounds to 1.
func (s *Source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Intn returns rand.Rand.Intn's next value on this stream for n in
// (0, 2^31-1], the only range the simulator draws from. It panics if n is
// outside that range.
func (s *Source) Intn(n int) int {
	if n <= 0 || n > 1<<31-1 {
		panic("rng: Intn argument out of range")
	}
	return int(s.int31n(int32(n)))
}

// int31n is rand.Rand.Int31n for n > 0.
func (s *Source) int31n(n int32) int32 {
	if n&(n-1) == 0 { // a power of two: mask
		return int32(s.Int63()>>32) & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := int32(s.Int63() >> 32)
	for v > max {
		v = int32(s.Int63() >> 32)
	}
	return v % n
}

// Rand returns a math/rand.Rand drawing from s, for the draw Source does
// not copy (NormFloat64) and for code that takes a *rand.Rand.
// Its draws and s's own interleave on one stream.
func (s *Source) Rand() *rand.Rand { return s.std }

// referenceDraws counts draws made through NewReference generators.
var referenceDraws atomic.Uint64

// NewReference returns rand.New(rand.NewSource(seed)) — math/rand's own
// generator, the oracle Source is checked against — with each draw from
// the underlying source counted process-wide (ReferenceDraws).
func NewReference(seed int64) *rand.Rand {
	return rand.New(counted{rand.NewSource(seed).(rand.Source64)})
}

// ReferenceDraws returns how many source draws this process has made
// through NewReference generators. Tests read it to prove a reference run
// really drew from math/rand.
func ReferenceDraws() uint64 { return referenceDraws.Load() }

// counted forwards to a stdlib source, counting draws.
type counted struct{ rand.Source64 }

func (c counted) Int63() int64 {
	referenceDraws.Add(1)
	return c.Source64.Int63()
}

func (c counted) Uint64() uint64 {
	referenceDraws.Add(1)
	return c.Source64.Uint64()
}
