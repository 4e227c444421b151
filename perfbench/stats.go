package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported as measured rather than as a guess about the tail.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1) and
// whether at least minTail samples lie strictly above it. xs is not
// modified.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps q*n from landing a hair above an integer
	// (0.99*1000) and skipping a rank.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= minTail
}

// tailQuantiles are the percentiles highestTail chooses from, highest
// first.
var tailQuantiles = []float64{0.999, 0.99, 0.9, 0.5}

// highestTail returns the highest of tailQuantiles that has at least
// minTail samples beyond it, with its value; ok is false when even the
// median has too few.
func highestTail(xs []float64) (q, v float64, ok bool) {
	for _, q := range tailQuantiles {
		if v, ok := percentile(xs, q); ok {
			return q, v, true
		}
	}
	return 0, 0, false
}

// median is the middle value of xs, averaging the two middle values of an
// even-sized sample (0 for an empty one).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// The end-to-end metrics every workload reports with -trace 0. Each one
// has a meaning on all three workloads; see README.md for how the service
// workload maps onto the cell vocabulary.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cell_s", "s"},
	{"cells_per_s", "1/s"},
	{"cpu_s_per_cell", "s"},
	{"lc_mean_p99_ms", "ms"},
	{"be_fairness", "ratio"},
}

// The per-layer metrics every workload reports with -trace 1. Layers a
// workload does not exercise read 0.
var perLayer = []metricDef{
	// Simulator layers, timed around public calls in the evaluation run.
	{"mem.begin_tick_s", "s"},
	{"workload.lc_tick_s", "s"},
	{"pebs.record_s", "s"},
	{"workload.be_tick_s", "s"},
	{"policy.tick_s", "s"},
	{"core.ppe.tick_s", "s"},
	{"core.ppm.decide_s", "s"},
	{"mem.age_s", "s"},
	{"sim.build_s", "s"},
	// The same spans during SAC pretraining.
	{"train.mem.begin_tick_s", "s"},
	{"train.workload.lc_tick_s", "s"},
	{"train.pebs.record_s", "s"},
	{"train.workload.be_tick_s", "s"},
	{"train.core.ppe.tick_s", "s"},
	{"train.core.ppm.decide_s", "s"},
	{"train.mem.age_s", "s"},
	{"train.sim.build_s", "s"},
	{"sim.pretrain_s", "s"},
	// Work counts at the same boundaries.
	{"pebs.samples", "count"},
	{"pebs.ns_per_sample", "ns"},
	{"train.pebs.samples", "count"},
	{"queue.draws", "count"},
	{"train.queue.draws", "count"},
	{"mem.promoted_pages", "count"},
	{"mem.demoted_pages", "count"},
	{"core.ppm.decisions", "count"},
	{"core.ppm.ms_per_decision", "ms"},
	{"train.core.ppm.decisions", "count"},
	{"rl.updates", "count"},
	{"rl.us_per_update", "us"},
	// Whole traced run.
	{"sim.wall_s", "s"},
	{"sim.other_s", "s"},
	{"sim.ticks_per_s", "1/s"},
	{"sim.alloc_mb", "MB"},
	{"sim.gc_cycles", "count"},
	{"trace.untraced_wall_s", "s"},
	{"trace.overhead_pct", "%"},
	{"trace.equal", "bool"},
	// Simulated outcome that reads 0 on workloads that meet their SLO,
	// so it cannot be an end-to-end metric.
	{"lc_violation_rate", "ratio"},
	// Service: client-side spans around each HTTP call.
	{"submit_ack_p50_ms", "ms"},
	{"submit_ack_p99_ms", "ms"},
	{"run_done_p50_ms", "ms"},
	{"run_done_p90_ms", "ms"},
	{"run_done_p99_ms", "ms"},
	{"first_event_p50_ms", "ms"},
	{"status_read_p50_ms", "ms"},
	{"fail_ratio", "ratio"},
	{"sse.gaps", "count"},
	{"sse.missed_terminal", "count"},
	// Service: server-side, from run status timestamps and /metrics deltas.
	{"server.queue_wait_ms_p50", "ms"},
	{"server.execute_ms_p50", "ms"},
	{"tenant.queue_wait_ms_mean", "ms"},
	{"http.post_runs_ms_mean", "ms"},
	{"http.get_run_ms_mean", "ms"},
	{"journal.append_ms_mean", "ms"},
	{"journal.appends", "count"},
	{"telemetry.bus_events", "count"},
	{"telemetry.bus_dropped", "count"},
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validateDefs checks that every metric name is well formed and unique.
func validateDefs(defs []metricDef) error {
	seen := make(map[string]bool, len(defs))
	for _, d := range defs {
		if !metricNameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q does not match %s", d.Name, metricNameRE)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last line of output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildReport selects defs from values. A missing or non-finite value is
// an error: the benchmark never prints a metric it did not measure.
func buildReport(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}
