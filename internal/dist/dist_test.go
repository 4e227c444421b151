package dist

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"github.com/tieredmem/mtat/internal/rng"
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
// single item, theta 0 (uniform), the profiles' skews, a theta so large
// that cdf[0] is within rounding of 1, and a table capped below
// guidePerItem buckets per item.
var zipfCases = []struct {
	n     int
	theta float64
}{
	{1, 0}, {1, 2}, {2, 0}, {3, 0.5}, {7, 0}, {100, 0.2}, {1000, 0.99},
	{9088, 0.7}, {9216, 1.05}, {4096, 3}, {500, 40}, {1 << 16, 0.55},
	{300_000, 0.99}, // fewer than guidePerItem buckets per item (maxGuideBuckets)
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

// The guide buckets' edges are where rounding of u*m and j/m matters:
// check u at exactly j/m and one ulp either side, and at the CDF values
// themselves.
func TestZipfGuidedAtBucketEdges(t *testing.T) {
	for _, c := range zipfCases {
		z, err := NewZipf(c.n, c.theta)
		if err != nil {
			t.Fatal(err)
		}
		step := 1 + z.m/2000
		for j := 0; j <= z.m; j += step {
			edge := float64(j) / float64(z.m)
			for _, u := range []float64{math.Nextafter(edge, -1), edge, math.Nextafter(edge, 2)} {
				if u >= 0 && u < 1 {
					checkGuided(t, z, u)
				}
			}
		}
		for i := 0; i < c.n; i += 1 + c.n/2000 {
			for _, u := range []float64{math.Nextafter(z.cdf[i], -1), z.cdf[i], math.Nextafter(z.cdf[i], 2)} {
				if u >= 0 && u < 1 {
					checkGuided(t, z, u)
				}
			}
		}
		checkGuided(t, z, math.Nextafter(1, 0))
	}
}

// Where u*m and the table's j/m round differently, the guide bucket alone
// can miss the answer by one, and only the bound checks recover it. The
// Zipf CDFs above rarely put a CDF value within an ulp of a bucket edge,
// so this test builds one: cdf[i] = (i+1)/n with one value moved to the
// ulp below an edge whose u*m rounds up into the edge's bucket. It then
// shifts every guide entry one down and one up and clears every exact
// flag, so both bound checks must repair every bucket. It mutates the
// table, so it builds private ones, never the shared tables of NewZipf.
func TestZipfGuidedBoundChecks(t *testing.T) {
	z, u := edgeZipf(t)
	if z.guide[int(u*z.scale)]&exactBit != 0 {
		t.Fatalf("bucket of u=%v flagged exact though a CDF value sits an ulp below its edge", u)
	}
	checkGuided(t, z, u)
	for _, shift := range []int32{-1, 1} {
		z := newZipf(2000, 0.9)
		for j, g := range z.guide {
			z.guide[j] = uint32(min(max(int32(g&^exactBit)+shift, 0), int32(z.n-1)))
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 20000; i++ {
			checkGuided(t, z, rng.Float64())
		}
	}
}

// edgeZipf returns a private Zipf over cdf[i] = (i+1)/n, with one CDF value
// moved to the ulp u just below a bucket edge j/m such that u*m rounds up
// to j: u lands in bucket j, yet its answer is the item before guide[j].
func edgeZipf(t *testing.T) (*Zipf, float64) {
	t.Helper()
	for n := 2; n < 5000; n++ {
		m := guidePerItem * n
		for i := 1; i < n; i++ {
			j := guidePerItem * i // the edge j/m == i/n, where cdf[i-1] sits
			edge := float64(j) / float64(m)
			if u := math.Nextafter(edge, 0); int(u*float64(m)) == j {
				cdf := evenCDF(n)
				cdf[i-1] = u
				return zipfFromCDF(cdf, 0), u
			}
		}
	}
	t.Fatal("no edge found whose u*m rounds up")
	return nil, 0
}

// bucketExtremes returns the smallest and the largest u in [0, 1) with
// int(u*m) == j (clamped to m-1, as search clamps), found by walking
// ulps from the edges.
func bucketExtremes(j, m int) (lo, hi float64) {
	bucket := func(u float64) int { return min(int(u*float64(m)), m-1) }
	lo = float64(j) / float64(m)
	for lo > 0 && bucket(math.Nextafter(lo, 0)) >= j {
		lo = math.Nextafter(lo, 0)
	}
	for bucket(lo) < j {
		lo = math.Nextafter(lo, 1)
	}
	hi = math.Nextafter(1, 0)
	if j < m-1 {
		hi = float64(j+1) / float64(m)
		for bucket(hi) > j {
			hi = math.Nextafter(hi, 0)
		}
		for bucket(math.Nextafter(hi, 1)) <= j {
			hi = math.Nextafter(hi, 1)
		}
	}
	return lo, hi
}

// unsafeFlags returns the buckets flagged exact whose extreme draws the
// flagged search answers wrongly. A flagged bucket is wrong for some draw
// only if it is wrong for one of its extremes: the answer is monotone in
// u, so a draw leaving the bucket's candidates below (above) means its
// smallest (largest) draw leaves them too.
func unsafeFlags(z *Zipf) []int {
	var bad []int
	for j := 0; j < z.m; j++ {
		if z.guide[j]&exactBit == 0 {
			continue
		}
		lo, hi := bucketExtremes(j, z.m)
		for _, u := range []float64{lo, hi} {
			if z.search(u) != lowerBound(z.cdf, u, 0, z.n-1) {
				bad = append(bad, j)
				break
			}
		}
	}
	return bad
}

// Every bucket newGuide flags exact must hold the answer of every draw
// that lands in it, for every test shape and for a CDF with a value an ulp
// below a bucket edge.
func TestZipfExactBucketsSafe(t *testing.T) {
	edge, _ := edgeZipf(t)
	zs := []*Zipf{edge}
	for _, c := range zipfCases {
		zs = append(zs, newZipf(c.n, c.theta))
	}
	for _, z := range zs {
		if bad := unsafeFlags(z); len(bad) > 0 {
			t.Errorf("n=%d theta=%g: %d buckets flagged exact answer a draw wrongly, first %d",
				z.n, z.theta, len(bad), bad[0])
		}
	}
	// The flags must pay off: a simulator-sized table flags nearly every
	// bucket, and most of those hold one candidate.
	z := newZipf(9088, 0.7)
	flagged, single := 0, 0
	for j := 0; j < z.m; j++ {
		if z.guide[j]&exactBit != 0 {
			flagged++
			if z.guide[j]&^exactBit == z.guide[j+1]&^exactBit {
				single++
			}
		}
	}
	if flagged < z.m*99/100 || single < z.m/2 {
		t.Errorf("n=9088 theta=0.7: %d of %d buckets exact, %d with one candidate", flagged, z.m, single)
	}
}

// The check above must catch a flag on an unsafe bucket: setting the flag
// on the edge case's bucket makes unsafeFlags name it.
func TestUnsafeFlagIsCaught(t *testing.T) {
	z, u := edgeZipf(t)
	j := int(u * z.scale)
	z.guide[j] |= exactBit
	bad := unsafeFlags(z)
	if len(bad) != 1 || bad[0] != j {
		t.Fatalf("unsafeFlags = %v after flagging unsafe bucket %d, want [%d]", bad, j, j)
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
		edge := math.Round(u*z.scale) / z.scale
		for _, v := range []float64{math.Nextafter(edge, -1), edge, math.Nextafter(edge, 2)} {
			if v >= 0 && v < 1 {
				checkGuided(t, z, v)
			}
		}
	})
}

// drawCases builds, afresh on each call, the distributions Draw must
// match a Sample loop on: each shape the simulator uses, a stateful Scan
// started mid-pass, and a Mixture with a component Draw has no case for.
func drawCases(t *testing.T) map[string]Distribution {
	t.Helper()
	must := func(d Distribution, err error) Distribution {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	z := must(NewZipf(3000, 0.55))
	scan := must(NewScan(3000)).(*Scan)
	scan.next = 2990 // wraps within the first draws
	mixScan := must(NewScan(3000))
	return map[string]Distribution{
		"zipf":        must(NewZipf(9088, 0.7)),
		"zipf-theta0": must(NewZipf(540, 0)),
		"uniform":     must(NewUniform(9088)),
		"uniform-pow": must(NewUniform(1024)),
		"scan":        scan,
		"zipf+scan":   must(NewMixture([]Distribution{z, mixScan}, []float64{0.7, 0.3})),
		"zipf+uniform": must(NewMixture(
			[]Distribution{z, must(NewUniform(3000))}, []float64{0.5, 0.5})),
		"mixture-of-mixture": must(NewMixture(
			[]Distribution{must(NewMixture([]Distribution{z}, []float64{1})), must(NewUniform(3000))},
			[]float64{0.5, 0.5})),
	}
}

// Draw must return exactly what a loop of d.Sample over math/rand returns
// on the same seed, batch after batch, and leave the stream where that
// loop leaves it.
func TestDrawMatchesSampleLoop(t *testing.T) {
	batched, looped := drawCases(t), drawCases(t)
	for name, d := range batched {
		src, std := rng.New(17), rand.New(rand.NewSource(17))
		ref := looped[name]
		buf := make([]int, 700)
		for batch, k := range []int{0, 1, 700, 333, 607, 700} {
			Draw(d, src, buf[:k])
			for i, got := range buf[:k] {
				if want := ref.Sample(std); got != want {
					t.Fatalf("%s batch %d draw %d: Draw %d, Sample %d", name, batch, i, got, want)
				}
			}
		}
		if src.Int63() != std.Int63() {
			t.Errorf("%s: streams diverged after the batches", name)
		}
	}
}

// NewZipf shares one immutable table per (n, theta); the private
// constructor never does.
func TestNewZipfSharesTables(t *testing.T) {
	a, _ := NewZipf(777, 0.7)
	b, _ := NewZipf(777, 0.7)
	if a != b {
		t.Error("NewZipf(777, 0.7) built two tables")
	}
	if c, _ := NewZipf(777, 0.71); c == a {
		t.Error("different theta shares a table")
	}
	if c, _ := NewZipf(778, 0.7); c == a {
		t.Error("different n shares a table")
	}
	if newZipf(777, 0.7) == a {
		t.Error("newZipf returned a shared table")
	}
	// Filling the cache with other shapes evicts the least recently used
	// table, and a rebuilt one equals it.
	for i := 0; i < zipfCacheCapacity; i++ {
		if _, err := NewZipf(1000+i, 0.7); err != nil {
			t.Fatal(err)
		}
	}
	zipfCache.Lock()
	n := len(zipfCache.entries)
	_, kept := zipfCache.entries[zipfKey{777, math.Float64bits(0.7)}]
	zipfCache.Unlock()
	if n > zipfCacheCapacity || kept {
		t.Errorf("cache holds %d tables (cap %d), 777 kept=%v", n, zipfCacheCapacity, kept)
	}
	c, _ := NewZipf(777, 0.7)
	if c == a {
		t.Error("evicted table returned again")
	}
	for i := range a.cdf {
		if a.cdf[i] != c.cdf[i] {
			t.Fatalf("rebuilt cdf[%d] = %v, was %v", i, c.cdf[i], a.cdf[i])
		}
	}
	for j := range a.guide {
		if a.guide[j] != c.guide[j] {
			t.Fatalf("rebuilt guide[%d] = %#x, was %#x", j, c.guide[j], a.guide[j])
		}
	}
}

// Concurrent NewZipf calls and draws from the shared tables must be free
// of data races (go test -race) and agree on every table.
func TestNewZipfConcurrent(t *testing.T) {
	const workers = 4
	got := make([][]*Zipf, workers)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			src := rng.New(int64(w))
			buf := make([]int, 256)
			for i := 0; i < 3*zipfCacheCapacity; i++ {
				z, err := NewZipf(500+i%(2*zipfCacheCapacity), 0.9)
				if err != nil {
					t.Error(err)
					return
				}
				Draw(z, src, buf)
				if i < 8 {
					got[w] = append(got[w], z)
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	for w := 1; w < workers; w++ {
		for i := range got[0] {
			if got[w][i].n != got[0][i].n || got[w][i].cdf[got[0][i].n/2] != got[0][i].cdf[got[0][i].n/2] {
				t.Fatalf("worker %d table %d differs", w, i)
			}
		}
	}
}

// BenchmarkNewZipfBuild times building a paper-scale table (what NewZipf
// pays on a cache miss); BenchmarkNewZipfShared times a cache hit.
func BenchmarkNewZipfBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		newZipf(9088, 0.7)
	}
}

func BenchmarkNewZipfShared(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewZipf(9088, 0.7); err != nil {
			b.Fatal(err)
		}
	}
}
