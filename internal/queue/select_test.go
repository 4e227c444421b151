package queue

import (
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
