package queue

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestSelectKthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(3000)
		a := make([]float64, n)
		for i := range a {
			if rng.Intn(8) == 0 { // duplicates stress the partition
				a[i] = float64(rng.Intn(4))
			} else {
				a[i] = rng.NormFloat64()
			}
		}
		sorted := append([]float64(nil), a...)
		sort.Float64s(sorted)
		for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
			k := quantileIndex(n, q)
			buf := append([]float64(nil), a...)
			if got, want := selectKth(buf, k), sorted[k]; got != want {
				t.Fatalf("trial %d n=%d q=%g: selectKth=%g, sorted[%d]=%g",
					trial, n, q, got, k, want)
			}
		}
	}
}

// TestTickQuantilesMatchReference runs identical tick sequences through the
// fast paths (quickselect, the inlinable rng copy) and the reference paths
// (full sort, math/rand's generator) and asserts bit-identical
// TickResults.
func TestTickQuantilesMatchReference(t *testing.T) {
	fast, err := NewModel(4, 11)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewModel(4, 11)
	if err != nil {
		t.Fatal(err)
	}
	ref.SetReference(true)
	fast.SetClientTimeout(0.5)
	ref.SetClientTimeout(0.5)

	svc := ExponentialService(0.002)
	for tick := 0; tick < 300; tick++ {
		rate := 100 + float64(tick%50)*40 // sweeps through stable and overloaded
		fr, err := fast.Tick(rate, 0.1, svc, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := ref.Tick(rate, 0.1, svc, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if fr != rr {
			t.Fatalf("tick %d: fast %+v != ref %+v", tick, fr, rr)
		}
	}
}

func BenchmarkTickQuantileRef(b *testing.B) {
	m, err := NewModel(8, 42)
	if err != nil {
		b.Fatal(err)
	}
	m.SetReference(true)
	svc := ExponentialService(0.002)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Tick(3000, 0.1, svc, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

// wantQuantiles is the oracle for Quantiles: the full sort's order
// statistics, or, for a buffer the bucket kernel must not take (a
// negative, +Inf or NaN element), selectKth's, the fallback it must take
// instead.
func wantQuantiles(a []float64) (p50, p99 float64) {
	k50, k99 := quantileIndex(len(a), 0.50), quantileIndex(len(a), 0.99)
	buf := append([]float64(nil), a...)
	for _, x := range a {
		if math.Signbit(x) || math.IsInf(x, 1) || math.IsNaN(x) {
			return selectKth(buf, k50), selectKth(buf, k99)
		}
	}
	sort.Float64s(buf)
	return buf[k50], buf[k99]
}

// checkQuantiles asserts that Quantiles returns wantQuantiles' bits.
func checkQuantiles(t *testing.T, m *Model, name string, a []float64) {
	t.Helper()
	w50, w99 := wantQuantiles(a)
	g50, g99 := m.Quantiles(append([]float64(nil), a...))
	if math.Float64bits(g50) != math.Float64bits(w50) || math.Float64bits(g99) != math.Float64bits(w99) {
		t.Fatalf("%s (n=%d): Quantiles = (%v, %v), want (%v, %v)", name, len(a), g50, g99, w50, w99)
	}
}

// TestQuantilesMatchSort checks the bucket kernel against the full sort on
// the buffers that stress it: a single bucket, two values, tails spanning
// many binades, subnormals and zeros, and the fallback cases.
func TestQuantilesMatchSort(t *testing.T) {
	m, err := NewModel(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	fill := func(n int, f func(i int) float64) []float64 {
		a := make([]float64, n)
		for i := range a {
			a[i] = f(i)
		}
		return a
	}
	sub := math.SmallestNonzeroFloat64
	cases := map[string]func(i int) float64{
		"all equal":      func(int) float64 { return 0.25 },
		"all zero":       func(int) float64 { return 0 },
		"two values":     func(int) float64 { return []float64{1e-3, 7}[rng.Intn(2)] },
		"two adjacent":   func(int) float64 { return []float64{1, math.Nextafter(1, 2)}[rng.Intn(2)] },
		"heavy tail":     func(int) float64 { return math.Exp(40 * rng.NormFloat64()) },
		"pareto":         func(int) float64 { return math.Pow(rng.Float64(), -3) },
		"subnormals":     func(int) float64 { return sub * float64(rng.Intn(1000)) },
		"subnormal+huge": func(int) float64 { return []float64{sub, 0, math.MaxFloat64, 1}[rng.Intn(4)] },
		"zeros and tail": func(i int) float64 { return float64(i%3) * rng.ExpFloat64() },
		"sorted":         func(i int) float64 { return float64(i) },
		"reversed":       func(i int) float64 { return float64(-i + 5000) },
		"sojourn-like":   func(int) float64 { return 1e-5*rng.ExpFloat64() + float64(rng.Intn(2))*3e-4*rng.ExpFloat64() },
		"negative zero":  func(i int) float64 { return []float64{math.Copysign(0, -1), 0, 1}[rng.Intn(3)] },
		"one negative": func(i int) float64 {
			if i == 7 {
				return -1e-300
			}
			return rng.Float64()
		},
		"plus inf": func(int) float64 { return []float64{math.Inf(1), 2, 3}[rng.Intn(3)] },
		"nan": func(i int) float64 {
			if i%100 == 3 {
				return math.NaN()
			}
			return rng.Float64()
		},
	}
	for name, f := range cases {
		for _, n := range []int{1, 2, 3, 100, 2048, 2049, 5000} {
			checkQuantiles(t, m, name, fill(n, f))
		}
	}
	// Random mixtures of the above, many sizes.
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for trial := 0; trial < 3000; trial++ {
		a, b := cases[names[rng.Intn(len(names))]], cases[names[rng.Intn(len(names))]]
		checkQuantiles(t, m, "mixture", fill(1+rng.Intn(3000), func(i int) float64 {
			if rng.Intn(4) == 0 {
				return a(i)
			}
			return b(i)
		}))
	}
}

// FuzzQuantiles checks Quantiles on arbitrary bit patterns, non-negative
// finite ones most of the time (the bucket kernel's domain).
func FuzzQuantiles(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, true)
	f.Add(make([]byte, 64), false)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0}, false)
	f.Fuzz(func(t *testing.T, data []byte, clamp bool) {
		a := make([]float64, 0, len(data)/8)
		for ; len(data) >= 8; data = data[8:] {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data))
			if clamp && !(x >= 0 && x <= math.MaxFloat64) {
				x = math.Abs(x)
				if x > math.MaxFloat64 || math.IsNaN(x) {
					x = math.MaxFloat64
				}
			}
			a = append(a, x)
		}
		if len(a) == 0 {
			return
		}
		m, err := NewModel(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkQuantiles(t, m, "fuzz", a)
	})
}
