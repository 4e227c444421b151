package queue

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(0, 1); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := NewModel(-1, 1); err == nil {
		t.Error("negative servers accepted")
	}
	m, err := NewModel(4, 1)
	if err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	if m.Servers() != 4 {
		t.Errorf("Servers() = %d, want 4", m.Servers())
	}
}

func TestTickValidation(t *testing.T) {
	m, _ := NewModel(1, 1)
	svc := DeterministicService(1e-5)
	if _, err := m.Tick(100, 0, svc, 0); err == nil {
		t.Error("zero dt accepted")
	}
	if _, err := m.Tick(-1, 0.1, svc, 0); err == nil {
		t.Error("negative arrival rate accepted")
	}
	if _, err := m.Tick(100, 0.1, ServiceDist{}, 0); err == nil {
		t.Error("empty service dist accepted")
	}
	if _, err := m.Tick(100, 0.1, ServiceDist{Mean: 1e-5, V: 1.5}, 0); err == nil {
		t.Error("exponential share above 1 accepted")
	}
}

func TestErlangC(t *testing.T) {
	// M/M/1: Erlang-C equals rho.
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		if got := erlangC(1, rho); math.Abs(got-rho) > 1e-9 {
			t.Errorf("erlangC(1, %g) = %g, want %g", rho, got, rho)
		}
	}
	// Known value: c=2, rho=0.75 (a=1.5): C ~= 0.6429.
	if got := erlangC(2, 0.75); math.Abs(got-0.642857) > 1e-4 {
		t.Errorf("erlangC(2, 0.75) = %g, want ~0.642857", got)
	}
	if got := erlangC(4, 0); got != 0 {
		t.Errorf("erlangC at rho=0 = %g, want 0", got)
	}
	if got := erlangC(4, 1); got != 1 {
		t.Errorf("erlangC at rho=1 = %g, want 1", got)
	}
	// More servers at equal rho wait less.
	if erlangC(8, 0.8) >= erlangC(2, 0.8) {
		t.Error("erlangC should decrease with server count at fixed rho")
	}
}

func TestTickLowLoadLatencyIsService(t *testing.T) {
	m, _ := NewModel(1, 42)
	svc := DeterministicService(10e-6)
	res, err := m.Tick(1000, 0.1, svc, 0) // rho = 0.01
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.P50-10e-6)/10e-6 > 0.2 {
		t.Errorf("P50 at 1%% load = %g, want ~10µs", res.P50)
	}
	if res.Backlog != 0 {
		t.Errorf("backlog at low load = %g, want 0", res.Backlog)
	}
	if math.Abs(res.Completed-100) > 1e-6 {
		t.Errorf("Completed = %g, want 100", res.Completed)
	}
	if math.Abs(res.Utilization-0.01) > 1e-9 {
		t.Errorf("Utilization = %g, want 0.01", res.Utilization)
	}
}

func TestTickLatencyIncreasesWithLoad(t *testing.T) {
	svc := ExponentialService(10e-6)
	var prev float64
	for i, rate := range []float64{10000, 50000, 90000, 98000} {
		m, _ := NewModel(1, 7)
		// Average several ticks to smooth Monte Carlo noise.
		var sum float64
		const n = 20
		for j := 0; j < n; j++ {
			res, err := m.Tick(rate, 0.1, svc, 0)
			if err != nil {
				t.Fatal(err)
			}
			sum += res.P99
		}
		p99 := sum / n
		if i > 0 && p99 <= prev {
			t.Errorf("P99 at rate %g (%g) not above previous (%g)", rate, p99, prev)
		}
		prev = p99
	}
}

func TestTickOverloadBacklogGrows(t *testing.T) {
	m, _ := NewModel(1, 3)
	svc := DeterministicService(10e-6) // capacity 100k/s
	var lastP99 float64
	for i := 0; i < 10; i++ {
		res, err := m.Tick(150000, 0.1, svc, 0) // 1.5x overload
		if err != nil {
			t.Fatal(err)
		}
		// Backlog grows by ~5000 requests per tick.
		wantB := 5000 * float64(i+1)
		if math.Abs(res.Backlog-wantB)/wantB > 0.01 {
			t.Fatalf("tick %d backlog = %g, want ~%g", i, res.Backlog, wantB)
		}
		if res.P99 < lastP99 {
			t.Errorf("P99 decreased under sustained overload: %g -> %g", lastP99, res.P99)
		}
		lastP99 = res.P99
		if res.Completed > 10000+1e-6 {
			t.Errorf("completed %g exceeds capacity 10000", res.Completed)
		}
	}
	// After 1s of 1.5x overload the queue holds ~50k requests -> latency
	// near 0.5s, a clear SLO explosion.
	if lastP99 < 0.1 {
		t.Errorf("P99 after sustained overload = %g, want > 0.1s", lastP99)
	}
}

func TestBacklogDrainsAfterLoadDrop(t *testing.T) {
	m, _ := NewModel(1, 3)
	svc := DeterministicService(10e-6)
	for i := 0; i < 5; i++ {
		if _, err := m.Tick(150000, 0.1, svc, 0); err != nil {
			t.Fatal(err)
		}
	}
	if m.Backlog() == 0 {
		t.Fatal("expected backlog after overload")
	}
	// Drop to half load: drain.
	var res TickResult
	var err error
	for i := 0; i < 10; i++ {
		res, err = m.Tick(50000, 0.1, svc, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Backlog == 0 {
			break
		}
	}
	if res.Backlog != 0 {
		t.Errorf("backlog did not drain: %g", res.Backlog)
	}
}

func TestResetBacklog(t *testing.T) {
	m, _ := NewModel(1, 3)
	svc := DeterministicService(10e-6)
	if _, err := m.Tick(150000, 0.1, svc, 0); err != nil {
		t.Fatal(err)
	}
	if m.Backlog() == 0 {
		t.Fatal("expected backlog")
	}
	m.ResetBacklog()
	if m.Backlog() != 0 {
		t.Error("ResetBacklog did not clear backlog")
	}
}

func TestViolationFrac(t *testing.T) {
	m, _ := NewModel(1, 11)
	svc := DeterministicService(10e-6)
	// Low load, generous SLO: no violations.
	res, err := m.Tick(1000, 0.1, svc, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if res.ViolationFrac != 0 {
		t.Errorf("violations at low load = %g, want 0", res.ViolationFrac)
	}
	// Overload for a second, then nearly all requests violate.
	for i := 0; i < 10; i++ {
		res, err = m.Tick(200000, 0.1, svc, 0.02)
		if err != nil {
			t.Fatal(err)
		}
	}
	if res.ViolationFrac < 0.95 {
		t.Errorf("violations under overload = %g, want ~1", res.ViolationFrac)
	}
	// slo=0 disables violation accounting.
	res, err = m.Tick(1000, 0.1, svc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ViolationFrac != 0 {
		t.Errorf("ViolationFrac with slo=0 = %g, want 0", res.ViolationFrac)
	}
}

func TestStationaryP99(t *testing.T) {
	m, _ := NewModel(1, 1)
	svc := ExponentialService(10e-6)
	// Unstable -> infinite.
	if got := m.StationaryP99(200000, svc); !math.IsInf(got, 1) {
		t.Errorf("StationaryP99 at 2x overload = %g, want +Inf", got)
	}
	// Very low load: close to service time scale.
	low := m.StationaryP99(1000, svc)
	if low > 100e-6 {
		t.Errorf("StationaryP99 at 1%% load = %g, want < 100µs", low)
	}
	// Monotone in arrival rate.
	prev := 0.0
	for _, rate := range []float64{10000, 50000, 90000, 99000} {
		got := m.StationaryP99(rate, svc)
		if got < prev {
			t.Errorf("StationaryP99 not monotone at rate %g: %g < %g", rate, got, prev)
		}
		prev = got
	}
	// The knee: near saturation P99 explodes past 100x the service time.
	if knee := m.StationaryP99(99900, svc); knee < 100*svc.Mean {
		t.Errorf("StationaryP99 near saturation = %g, want > %g", knee, 100*svc.Mean)
	}
}

func TestStationaryP99MoreServersSustainMoreLoad(t *testing.T) {
	svc := ExponentialService(50e-6)
	m1, _ := NewModel(1, 1)
	m8, _ := NewModel(8, 1)
	rate := 100000.0 // 5x one server's capacity, 62% of eight servers'
	if got := m1.StationaryP99(rate, svc); !math.IsInf(got, 1) {
		t.Errorf("1 server at 5x load should be unstable, got %g", got)
	}
	if got := m8.StationaryP99(rate, svc); math.IsInf(got, 1) || got > 0.01 {
		t.Errorf("8 servers at 62%% load should be fast, got %g", got)
	}
}

func TestServiceDistHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	det := DeterministicService(5e-6)
	if det.Mean != 5e-6 || det.CV2() != 0 || det.sample(rng) != 5e-6 {
		t.Error("DeterministicService wrong")
	}
	exp := ExponentialService(5e-6)
	if exp.Mean != 5e-6 || exp.CV2() != 1 {
		t.Error("ExponentialService moments wrong")
	}
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += exp.sample(rng)
	}
	if got := sum / n; math.Abs(got-5e-6)/5e-6 > 0.02 {
		t.Errorf("ExponentialService empirical mean = %g, want 5µs", got)
	}
}

func TestSortFloats(t *testing.T) {
	f := func(a []float64) bool {
		b := make([]float64, len(a))
		copy(b, a)
		sortFloats(b)
		c := make([]float64, len(a))
		copy(c, a)
		sort.Float64s(c)
		for i := range b {
			if b[i] != c[i] && !(math.IsNaN(b[i]) && math.IsNaN(c[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuantileSorted(t *testing.T) {
	if got := quantileSorted(nil, 0.5); got != 0 {
		t.Errorf("quantileSorted(nil) = %g, want 0", got)
	}
	s := []float64{1, 2, 3, 4}
	cases := []struct {
		q, want float64
	}{{0, 1}, {0.25, 1}, {0.5, 2}, {0.99, 4}, {1, 4}}
	for _, tc := range cases {
		if got := quantileSorted(s, tc.q); got != tc.want {
			t.Errorf("quantileSorted(q=%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
}

func TestTickDeterminism(t *testing.T) {
	run := func() []float64 {
		m, _ := NewModel(2, 99)
		svc := ExponentialService(20e-6)
		out := make([]float64, 0, 10)
		for i := 0; i < 10; i++ {
			res, err := m.Tick(60000, 0.1, svc, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.P99)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tick %d differs across identical seeded runs: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestClientTimeoutBoundsBacklog(t *testing.T) {
	m, _ := NewModel(1, 17)
	m.SetClientTimeout(0.05) // 50 ms of queueing at most
	svc := DeterministicService(10e-6)
	var res TickResult
	var err error
	var totalDropped float64
	for i := 0; i < 30; i++ {
		res, err = m.Tick(200000, 0.1, svc, 0.02) // 2x overload
		if err != nil {
			t.Fatal(err)
		}
		totalDropped += res.Dropped
	}
	// Backlog is capped at maxDelay * capacity = 0.05 * 100000 = 5000.
	if res.Backlog > 5000+1 {
		t.Errorf("backlog %g exceeds timeout bound 5000", res.Backlog)
	}
	if totalDropped == 0 {
		t.Error("sustained overload dropped nothing")
	}
	// Dropped requests count as violations: with 2x overload roughly half
	// of all requests must fail.
	if res.ViolationFrac < 0.45 {
		t.Errorf("ViolationFrac = %g, want >= 0.45 under 2x overload", res.ViolationFrac)
	}
	// Latency stays bounded near the timeout rather than diverging.
	if res.P99 > 0.2 {
		t.Errorf("P99 = %g, want bounded near the 50 ms timeout", res.P99)
	}
}

func TestClientTimeoutDisabled(t *testing.T) {
	m, _ := NewModel(1, 18)
	m.SetClientTimeout(0) // disabled
	svc := DeterministicService(10e-6)
	var res TickResult
	for i := 0; i < 10; i++ {
		res, _ = m.Tick(200000, 0.1, svc, 0)
	}
	if res.Dropped != 0 {
		t.Errorf("drops with timeout disabled: %g", res.Dropped)
	}
	// Unbounded backlog keeps growing: 10k excess per tick x 10 ticks.
	if res.Backlog < 90000 {
		t.Errorf("backlog = %g, want ~100000 without timeout", res.Backlog)
	}
}

// TestMonteCarloP99MatchesStationary checks the closed form StationaryP99
// against the tick's Monte Carlo P99 across servers, load and service
// variability. The Monte Carlo statistic is the median P99 over 200 ticks.
// The closed form assumes that waiting dominates the tail, so the test
// asserts only where the Erlang-C wait probability is at least 0.7; there
// the measured ratio closed form / Monte Carlo was 0.894-1.005, and the
// bound is that worst case, rounded outward to two decimals. Elsewhere the
// closed form drops service-time variability from the tail and
// underestimates the Monte Carlo P99 by up to 3.2x (ratio 0.31 at c=8,
// rho=0.5, V=1; EXPERIMENTS.md, "Deviations and their causes"); those
// cells are only logged.
func TestMonteCarloP99MatchesStationary(t *testing.T) {
	const (
		mean  = 1e-3
		ticks = 200
		loR   = 0.89
		hiR   = 1.01
	)
	seed := int64(0)
	for _, c := range []int{1, 4, 8, 16} {
		for _, rho := range []float64{0.3, 0.5, 0.7, 0.8, 0.9, 0.95} {
			for _, v := range []float64{0.5, 1} {
				seed++
				m, err := NewModel(c, seed)
				if err != nil {
					t.Fatal(err)
				}
				svc := ServiceDist{Mean: mean, V: v}
				rate := rho * float64(c) / mean
				p99s := make([]float64, ticks)
				for i := range p99s {
					res, err := m.Tick(rate, 0.1, svc, 0)
					if err != nil {
						t.Fatal(err)
					}
					p99s[i] = res.P99
				}
				sort.Float64s(p99s)
				mc := (p99s[ticks/2-1] + p99s[ticks/2]) / 2
				closed := m.StationaryP99(rate, svc)
				ratio := closed / mc
				pWait := erlangC(c, rho)
				checked := pWait >= 0.7
				t.Logf("c=%-2d rho=%.2f V=%.1f pWait=%.3f closed=%.4g MC=%.4g ratio=%.3f checked=%v",
					c, rho, v, pWait, closed, mc, ratio, checked)
				if checked && (ratio < loR || ratio > hiR) {
					t.Errorf("c=%d rho=%.2f V=%.1f: StationaryP99 %.4g / Monte Carlo P99 %.4g = %.3f, want in [%g, %g]",
						c, rho, v, closed, mc, ratio, loR, hiR)
				}
			}
		}
	}
}

// builtService builds a ServiceDist out of line, as workload.LC.ServiceDist
// does once per tick.
//
//go:noinline
func builtService(mean float64) ServiceDist { return ExponentialService(mean) }

// A tick allocates nothing once its buffers exist, also when its service
// distribution is built out of line each tick.
func TestTickDoesNotAllocate(t *testing.T) {
	m, err := NewModel(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	mean := 10e-6
	if n := testing.AllocsPerRun(50, func() {
		mean *= 1.001
		if _, err := m.Tick(600000, 0.1, builtService(mean), 0.02); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("allocs per Tick = %g, want 0", n)
	}
}
