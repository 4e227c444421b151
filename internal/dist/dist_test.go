package dist

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func TestNewUniformValidation(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := NewUniform(n); err == nil {
			t.Errorf("NewUniform(%d) succeeded, want error", n)
		}
	}
}

func TestUniformCDF(t *testing.T) {
	u, err := NewUniform(4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		k    int
		want float64
	}{
		{-1, 0}, {0, 0}, {1, 0.25}, {2, 0.5}, {4, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := u.CDF(tc.k); got != tc.want {
			t.Errorf("CDF(%d) = %g, want %g", tc.k, got, tc.want)
		}
	}
}

func TestUniformSampleRange(t *testing.T) {
	u, _ := NewUniform(10)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		idx := u.Sample(rng)
		if idx < 0 || idx >= 10 {
			t.Fatalf("Sample out of range: %d", idx)
		}
		counts[idx]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("item %d sampled %d times, want ~1000", i, c)
		}
	}
}

func TestNewZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("NewZipf(0,1) succeeded, want error")
	}
	if _, err := NewZipf(10, -0.5); err == nil {
		t.Error("NewZipf with negative theta succeeded, want error")
	}
	if _, err := NewZipf(10, math.NaN()); err == nil {
		t.Error("NewZipf with NaN theta succeeded, want error")
	}
}

func TestZipfZeroThetaIsUniform(t *testing.T) {
	z, err := NewZipf(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 25, 50, 99} {
		want := float64(k) / 100
		if got := z.CDF(k); math.Abs(got-want) > 1e-9 {
			t.Errorf("theta=0 CDF(%d) = %g, want %g", k, got, want)
		}
	}
}

func TestZipfSkewConcentration(t *testing.T) {
	// Higher theta -> more mass on the hottest 1% of items.
	low, _ := NewZipf(1000, 0.5)
	high, _ := NewZipf(1000, 1.2)
	if low.CDF(10) >= high.CDF(10) {
		t.Errorf("theta=0.5 CDF(10)=%g should be < theta=1.2 CDF(10)=%g",
			low.CDF(10), high.CDF(10))
	}
	// A strongly skewed Zipf concentrates the majority of accesses on a
	// small fraction of items.
	if got := high.CDF(100); got < 0.5 {
		t.Errorf("theta=1.2 CDF(100 of 1000) = %g, want >= 0.5", got)
	}
}

func TestZipfSampleMatchesCDF(t *testing.T) {
	z, _ := NewZipf(50, 1.0)
	rng := rand.New(rand.NewSource(99))
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if z.Sample(rng) < 10 {
			hits++
		}
	}
	want := z.CDF(10)
	got := float64(hits) / n
	if math.Abs(got-want) > 0.01 {
		t.Errorf("empirical CDF(10) = %g, analytic %g", got, want)
	}
}

func TestZipfTheta(t *testing.T) {
	z, _ := NewZipf(10, 0.75)
	if got := z.Theta(); got != 0.75 {
		t.Errorf("Theta() = %g, want 0.75", got)
	}
}

func TestScan(t *testing.T) {
	s, err := NewScan(3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	got := []int{s.Sample(rng), s.Sample(rng), s.Sample(rng), s.Sample(rng)}
	want := []int{0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("scan sample %d = %d, want %d", i, got[i], want[i])
		}
	}
	if s.CDF(1) != 1.0/3 || s.CDF(3) != 1 {
		t.Errorf("scan CDF wrong: CDF(1)=%g CDF(3)=%g", s.CDF(1), s.CDF(3))
	}
	if _, err := NewScan(0); err == nil {
		t.Error("NewScan(0) succeeded, want error")
	}
}

func TestMixtureValidation(t *testing.T) {
	u, _ := NewUniform(10)
	z, _ := NewZipf(20, 1)
	if _, err := NewMixture(nil, nil); err == nil {
		t.Error("empty mixture succeeded, want error")
	}
	if _, err := NewMixture([]Distribution{u}, []float64{1, 2}); err == nil {
		t.Error("weight/component count mismatch succeeded, want error")
	}
	if _, err := NewMixture([]Distribution{u, z}, []float64{1, 1}); err == nil {
		t.Error("mixture over different item counts succeeded, want error")
	}
	if _, err := NewMixture([]Distribution{u}, []float64{0}); err == nil {
		t.Error("zero weight succeeded, want error")
	}
}

func TestMixtureCDF(t *testing.T) {
	u, _ := NewUniform(100)
	z, _ := NewZipf(100, 1.0)
	m, err := NewMixture([]Distribution{z, u}, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 10, 50, 100} {
		want := 0.75*z.CDF(k) + 0.25*u.CDF(k)
		if got := m.CDF(k); math.Abs(got-want) > 1e-9 {
			t.Errorf("mixture CDF(%d) = %g, want %g", k, got, want)
		}
	}
}

func TestMixtureSample(t *testing.T) {
	u, _ := NewUniform(100)
	z, _ := NewZipf(100, 1.5)
	m, _ := NewMixture([]Distribution{z, u}, []float64{1, 1})
	rng := rand.New(rand.NewSource(5))
	const n = 50000
	hits := 0
	for i := 0; i < n; i++ {
		idx := m.Sample(rng)
		if idx < 0 || idx >= 100 {
			t.Fatalf("mixture sample out of range: %d", idx)
		}
		if idx < 10 {
			hits++
		}
	}
	want := m.CDF(10)
	if got := float64(hits) / n; math.Abs(got-want) > 0.015 {
		t.Errorf("mixture empirical CDF(10) = %g, analytic %g", got, want)
	}
}

func TestHitRatio(t *testing.T) {
	u, _ := NewUniform(1000)
	if got := HitRatio(u, 0, 100); got != 0 {
		t.Errorf("HitRatio(0 pages) = %g, want 0", got)
	}
	if got := HitRatio(u, 100, 100); got != 1 {
		t.Errorf("HitRatio(all pages) = %g, want 1", got)
	}
	if got := HitRatio(u, 50, 100); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("uniform HitRatio(50%%) = %g, want 0.5", got)
	}
	if got := HitRatio(u, 10, 0); got != 0 {
		t.Errorf("HitRatio with zero totalPages = %g, want 0", got)
	}
	// Skewed distribution: half the pages should capture well over half
	// the accesses.
	z, _ := NewZipf(1000, 1.0)
	if got := HitRatio(z, 50, 100); got <= 0.6 {
		t.Errorf("zipf HitRatio(50%%) = %g, want > 0.6", got)
	}
}

// Property: all CDFs are monotone with CDF(0)=0, CDF(N)=1.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(seed int64, thetaRaw float64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		theta := math.Abs(math.Mod(thetaRaw, 2))
		z, err := NewZipf(n, theta)
		if err != nil {
			return false
		}
		if z.CDF(0) != 0 || z.CDF(n) != 1 {
			return false
		}
		prev := 0.0
		for k := 1; k <= n; k++ {
			c := z.CDF(k)
			if c < prev-1e-12 {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: HitRatio is monotone in residentPages.
func TestHitRatioMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		z, err := NewZipf(200+rng.Intn(300), rng.Float64()*1.5)
		if err != nil {
			return false
		}
		total := 100
		prev := 0.0
		for m := 0; m <= total; m++ {
			h := HitRatio(z, m, total)
			if h < prev-1e-12 || h < 0 || h > 1 {
				return false
			}
			prev = h
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNewZipfRejectsNBeyondGuideTable(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("n beyond MaxInt32 is not an int here")
	}
	n := int(int64(math.MaxInt32) + 1)
	if _, err := NewZipf(n, 1); err == nil {
		t.Errorf("NewZipf(%d, 1) succeeded, want error: guide entries are int32", n)
	}
}

// checkGuided asserts the guide-table search returns the reference full
// search's index for u.
func checkGuided(t *testing.T, z *Zipf, u float64) {
	t.Helper()
	if got, want := z.search(u), lowerBound(z.cdf, u, 0, z.n-1); got != want {
		t.Fatalf("n=%d theta=%g u=%v: guided %d, full search %d", z.n, z.theta, u, got, want)
	}
}

// zipfCases are the (n, theta) shapes every guide-table test covers: a
// single item, theta 0 (uniform), the profiles' skews, and a theta so
// large that cdf[0] is within rounding of 1.
var zipfCases = []struct {
	n     int
	theta float64
}{
	{1, 0}, {1, 2}, {2, 0}, {3, 0.5}, {7, 0}, {100, 0.2}, {1000, 0.99},
	{9088, 0.7}, {9216, 1.05}, {4096, 3}, {500, 40}, {1 << 16, 0.55},
}

// Property: for random n, theta and seed, every draw through the guide
// table is the draw the full binary search makes with the same RNG.
func TestZipfGuidedMatchesFullSearchProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16, thetaRaw float64) bool {
		n := 1 + int(nRaw)%5000
		theta := math.Abs(math.Mod(thetaRaw, 4))
		if math.IsNaN(theta) {
			theta = 0
		}
		z, err := NewZipf(n, theta)
		if err != nil {
			t.Log(err)
			return false
		}
		guided := rand.New(rand.NewSource(seed))
		full := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			if g, r := z.Sample(guided), SampleReference(z, full); g != r {
				t.Logf("n=%d theta=%g draw %d: guided %d, reference %d", n, theta, i, g, r)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	for _, c := range zipfCases {
		z, err := NewZipf(c.n, c.theta)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(c.n)))
		for i := 0; i < 5000; i++ {
			checkGuided(t, z, rng.Float64())
		}
	}
}

// The guide buckets' edges are where rounding of u*n and j/n matters:
// check u at exactly j/n and one ulp either side, and at the CDF values
// themselves.
func TestZipfGuidedAtBucketEdges(t *testing.T) {
	for _, c := range zipfCases {
		z, err := NewZipf(c.n, c.theta)
		if err != nil {
			t.Fatal(err)
		}
		step := 1 + c.n/2000
		for j := 0; j <= c.n; j += step {
			edge := float64(j) / float64(c.n)
			for _, u := range []float64{math.Nextafter(edge, -1), edge, math.Nextafter(edge, 2)} {
				if u >= 0 && u < 1 {
					checkGuided(t, z, u)
				}
			}
		}
		for i := 0; i < c.n; i += step {
			for _, u := range []float64{math.Nextafter(z.cdf[i], -1), z.cdf[i], math.Nextafter(z.cdf[i], 2)} {
				if u >= 0 && u < 1 {
					checkGuided(t, z, u)
				}
			}
		}
		checkGuided(t, z, math.Nextafter(1, 0))
	}
}

// Where u*n and the table's j/n round differently, the guide bucket alone
// can miss the answer by one, and only the bound checks recover it. The
// Zipf CDFs above rarely put a CDF value within an ulp of a bucket edge,
// so this test builds one: cdf[i] = (i+1)/n with one value moved to the
// ulp below an edge whose u*n rounds up into the edge's bucket. It then
// shifts every guide entry one down and one up, so both bound checks must
// repair every bucket.
func TestZipfGuidedBoundChecks(t *testing.T) {
	found := false
	for n := 2; n < 5000 && !found; n++ {
		for m := 1; m < n; m++ {
			edge := float64(m) / float64(n)
			if u := math.Nextafter(edge, 0); int(u*float64(n)) == m {
				cdf := evenCDF(n)
				cdf[m-1] = u
				checkGuided(t, &Zipf{n: n, cdf: cdf, guide: newGuide(cdf)}, u)
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no edge found whose u*n rounds up")
	}
	for _, shift := range []int32{-1, 1} {
		z, err := NewZipf(2000, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		for j := range z.guide {
			z.guide[j] = min(max(z.guide[j]+shift, 0), int32(z.n-1))
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 20000; i++ {
			checkGuided(t, z, rng.Float64())
		}
	}
}

// evenCDF returns cdf[i] = (i+1)/n.
func evenCDF(n int) []float64 {
	cdf := make([]float64, n)
	for i := range cdf {
		cdf[i] = float64(i+1) / float64(n)
	}
	return cdf
}

// A Mixture's reference draw must reach its Zipf component's full search
// and otherwise consume the RNG exactly as Mixture.Sample does (the Scan
// component keeps its own position, so each side gets its own mixture).
func TestMixtureSampleReferenceMatches(t *testing.T) {
	build := func() *Mixture {
		z, err := NewZipf(3000, 0.55)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewScan(3000)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMixture([]Distribution{z, s}, []float64{0.7, 0.3})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	fast, ref := build(), build()
	frng, rrng := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
	before := ReferenceSearches()
	const draws = 20000
	for i := 0; i < draws; i++ {
		if g, r := fast.Sample(frng), SampleReference(ref, rrng); g != r {
			t.Fatalf("draw %d: Sample %d, SampleReference %d", i, g, r)
		}
	}
	// About 70% of the draws go to the Zipf component.
	if n := ReferenceSearches() - before; n < draws/2 {
		t.Errorf("reference mixture draws made %d full searches, want >= %d", n, draws/2)
	}
	if frng.Int63() != rrng.Int63() {
		t.Error("RNG streams diverged")
	}
}

// FuzzZipfGuide checks the guide-table search against the full binary
// search for arbitrary n, theta and u (u from the bits of a uint64,
// folded into [0, 1)).
func FuzzZipfGuide(f *testing.F) {
	for _, c := range zipfCases {
		f.Add(uint32(c.n), c.theta, uint64(0))
		f.Add(uint32(c.n), c.theta, math.Float64bits(0.5))
		f.Add(uint32(c.n), c.theta, math.Float64bits(math.Nextafter(1, 0)))
	}
	f.Fuzz(func(t *testing.T, nRaw uint32, theta float64, bits uint64) {
		n := 1 + int(nRaw%(1<<16))
		if theta < 0 || math.IsNaN(theta) {
			t.Skip()
		}
		u := math.Float64frombits(bits)
		if !(u >= 0 && u < 1) {
			u = float64(bits>>11) / (1 << 53)
		}
		z, err := NewZipf(n, theta)
		if err != nil {
			t.Fatal(err)
		}
		checkGuided(t, z, u)
		// The bucket edge nearest u, and one ulp either side of it.
		edge := math.Round(u*float64(n)) / float64(n)
		for _, v := range []float64{math.Nextafter(edge, -1), edge, math.Nextafter(edge, 2)} {
			if v >= 0 && v < 1 {
				checkGuided(t, z, v)
			}
		}
	})
}
