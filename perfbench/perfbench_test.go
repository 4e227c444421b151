package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tieredmem/mtat/internal/sim"
)

func TestPercentileTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	cases := []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{1000, 0.99, 990, true}, // exactly 10 samples beyond
		{999, 0.99, 990, false}, // 9 beyond
		{100, 0.90, 90, true},
		{100, 0.99, 99, false},
		{20, 0.50, 10, true},
		{5, 0.50, 3, false},
		{1, 0.99, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(1..%d, %g) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.wantOK)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}

	for _, c := range []struct {
		n     int
		wantQ float64
	}{{10000, 0.999}, {9999, 0.99}, {999, 0.9}, {99, 0.5}} {
		q, _, ok := highestTail(seq(c.n))
		if !ok || q != c.wantQ {
			t.Errorf("highestTail(1..%d) = p%g (ok %v), want p%g", c.n, 100*q, ok, 100*c.wantQ)
		}
	}
	if _, _, ok := highestTail(seq(19)); ok {
		t.Error("highestTail of 19 samples found a percentile with 10 beyond it")
	}

	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
}

// The client submits its next run only once the previous one has
// finished, its latency runs from when it was sent, and nothing is sent
// after the window.
func TestClosedLoopWaitsForEachRun(t *testing.T) {
	const (
		stall   = 100 * time.Millisecond
		runTime = 20 * time.Millisecond
		window  = 300 * time.Millisecond
	)
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q}`, body) // the body is the run ID
	}))
	defer srv.Close()

	var mu sync.Mutex
	finishedAt := map[string]time.Time{}
	finished := func(_ context.Context, id string) {
		time.Sleep(runTime)
		mu.Lock()
		finishedAt[id] = time.Now()
		mu.Unlock()
	}
	start := time.Now()
	subs := closedLoop(context.Background(), srv.Client(), srv.URL, start, window, 1,
		func(i int) []byte { return []byte(fmt.Sprintf("r%d", i)) }, finished)

	if n := len(subs); n < 2 || n > int((window-stall)/runTime)+1 {
		t.Fatalf("%d submissions in %v with a %v stall and %v runs", n, window, stall, runTime)
	}
	for i, s := range subs {
		if s.err != nil || s.code != http.StatusAccepted || s.id != fmt.Sprintf("r%d", i) {
			t.Fatalf("submission %d: code %d id %q err %v", i, s.code, s.id, s.err)
		}
		if !s.sent.Before(start.Add(window)) {
			t.Errorf("submission %d sent %v after the window closed", i, s.sent.Sub(start.Add(window)))
		}
		if i == 0 {
			if lat := s.acked.Sub(s.sent); lat < stall {
				t.Errorf("stalled submission acked after %v, want >= %v", lat, stall)
			}
			continue
		}
		if prev := finishedAt[subs[i-1].id]; s.sent.Before(prev) {
			t.Errorf("submission %d sent %v before run %d finished", i, prev.Sub(s.sent), i-1)
		}
	}
}

// Slow seconds in a minority of slices move neither median.
func TestWindowSlicesMedians(t *testing.T) {
	start := time.Now()
	w := newWindowSlices(start, 5)
	for sec := 0; sec < 5; sec++ {
		lat := 10.0 // ms: 100 runs in the second
		if sec == 1 || sec == 3 {
			lat = 50
		}
		for at := 0.0; at < 1000; at += lat {
			w.add(start.Add(time.Duration((float64(sec)*1000+at)*float64(time.Millisecond))), lat, true)
		}
	}
	// A run sent as the window closes counts in the last slice.
	w.add(start.Add(5*time.Second), 10, true)
	if lat, rate := w.medians(); lat != 10 || rate != 100 {
		t.Fatalf("medians = %v ms, %v/s; want 10 ms, 100/s", lat, rate)
	}
}

func TestServiceSpecIsSeeded(t *testing.T) {
	if !reflect.DeepEqual(serviceSpec(7, 3), serviceSpec(7, 3)) {
		t.Fatal("same seed and index gave different specs")
	}
	if serviceSpec(7, 3).Seed == serviceSpec(8, 3).Seed || serviceSpec(7, 3).Seed == serviceSpec(7, 4).Seed {
		t.Fatal("run seeds do not follow the benchmark seed and the submission index")
	}
}

func TestMetricNames(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		if err := validateDefs(defs); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range [][]metricDef{
		{{"", "s"}},
		{{"has space", "s"}},
		{{"_leading", "s"}},
		{{"slash/name", "s"}},
		{{strings.Repeat("a", 65), "s"}},
		{{"twice", "s"}, {"twice", "ms"}},
	} {
		if validateDefs(bad) == nil {
			t.Errorf("validateDefs accepted %v", bad)
		}
	}
}

// BENCHMARK.json must list exactly the metrics the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", names, workloads)
	}
}

// The traced copy of the tick loop must compute exactly what the Runner
// computes, for a baseline and for a pretrained MTAT policy.
func TestTracedEqualsUntraced(t *testing.T) {
	ctx := context.Background()
	for _, pol := range []string{"memtis", "heuristic", "mtat-full"} {
		t.Run(pol, func(t *testing.T) {
			spec := sim.RunSpec{
				LC: "redis", BEs: []string{"sssp", "pr"}, Policy: pol,
				Scale: 16, Seed: 7, Episodes: 1, DurationSeconds: 30, WarmupSeconds: 2,
				Load: &sim.LoadSpec{Kind: "fig7"},
			}
			ref, err := untracedCell(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			// The reference is what sim.RunCells computes.
			cells := sim.RunCells(ctx, []sim.Cell{{Spec: spec}}, 1, false)
			if cells[0].Err != nil {
				t.Fatal(cells[0].Err)
			}
			if d := outcomeOf(cells[0].Result, ref.Agent).diff(ref); d != "" {
				t.Fatalf("untraced cell differs from sim.RunCells: %s", d)
			}

			got, ct, err := tracedCell(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if d := got.diff(ref); d != "" {
				t.Fatalf("trace_divergent: %s", d)
			}
			if ct.eval.ticks != 300 || ct.eval.d[phLCTick] <= 0 || ct.eval.d[phPEBS] <= 0 {
				t.Errorf("eval split not recorded: %d ticks, lc %v, pebs %v",
					ct.eval.ticks, ct.eval.d[phLCTick], ct.eval.d[phPEBS])
			}
			if pol == "mtat-full" {
				if len(got.Agent) == 0 || ct.train.decisions == 0 || ct.eval.decisions == 0 {
					t.Errorf("mtat split incomplete: agent %d bytes, %d train and %d eval decisions",
						len(got.Agent), ct.train.decisions, ct.eval.decisions)
				}
			} else if ct.eval.d[phPolicy] <= 0 {
				t.Error("baseline policy tick not timed")
			}

			changed := got
			changed.MigratedBytes++
			if changed.diff(ref) == "" {
				t.Error("diff missed a changed field")
			}
		})
	}
}
