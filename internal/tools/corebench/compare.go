package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Factor is the regression gate: a benchmark fails when its ns/op
// or allocs/op exceeds this multiple of the committed baseline. The gate
// is deliberately coarse — micro-benchmarks on shared CI runners jitter
// by tens of percent, and the baseline exists to catch accidental
// algorithmic regressions (a new allocation per tick, an O(n) scan gone
// O(n²)), not single-digit drift.
const Factor = 2.0

// allocSlack is the absolute allocs/op a benchmark may gain before the
// factor gate applies: zero-alloc baselines would otherwise turn any
// single new allocation into an infinite ratio.
const allocSlack = 4

// Regression is one benchmark exceeding the allowed factor over baseline.
type Regression struct {
	Name     string  `json:"name"`
	Metric   string  `json:"metric"` // "ns/op", "allocs/op", or "missing"
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	// Ratio is Current/Baseline (0 for a missing benchmark).
	Ratio float64 `json:"ratio"`
}

// String renders the regression for CI logs.
func (r Regression) String() string {
	if r.Metric == "missing" {
		return fmt.Sprintf("%s: present in baseline but not in current run", r.Name)
	}
	return fmt.Sprintf("%s: %s %.1f -> %.1f (%.2fx)",
		r.Name, r.Metric, r.Baseline, r.Current, r.Ratio)
}

// Compare gates current against baseline: every baseline benchmark must
// still exist and stay within Factor× on ns/op and allocs/op.
// Benchmarks only present in current are ignored — adding coverage must
// not fail the gate.
func Compare(baseline, current Report) []Regression {
	var regs []Regression
	for _, base := range baseline.Results {
		cur, ok := current.Find(base.Name)
		if !ok {
			regs = append(regs, Regression{Name: base.Name, Metric: "missing", Baseline: base.NsPerOp})
			continue
		}
		if base.NsPerOp > 0 && cur.NsPerOp > Factor*base.NsPerOp {
			regs = append(regs, Regression{
				Name: base.Name, Metric: "ns/op",
				Baseline: base.NsPerOp, Current: cur.NsPerOp,
				Ratio: cur.NsPerOp / base.NsPerOp,
			})
		}
		if ba, ca := base.AllocsPerOp, cur.AllocsPerOp; ca > ba+allocSlack && float64(ca) > Factor*float64(ba) {
			regs = append(regs, Regression{
				Name: base.Name, Metric: "allocs/op",
				Baseline: float64(ba), Current: float64(ca),
				Ratio: float64(ca) / float64(max(ba, 1)),
			})
		}
	}
	return regs
}

// WriteJSON serializes the report, indented, with a trailing newline.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport loads a report written by WriteJSON (e.g. the committed
// BENCH_core.json baseline).
func ReadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("parse %s: %w", path, err)
	}
	return r, nil
}
