package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func report(results ...Result) Report { return Report{Results: results} }

func TestCompareFlagsSlowdown(t *testing.T) {
	base := report(Result{Name: "queue/tick", NsPerOp: 100_000, AllocsPerOp: 2})
	cur := report(Result{Name: "queue/tick", NsPerOp: 250_000, AllocsPerOp: 2})
	regs := Compare(base, cur)
	if len(regs) != 1 {
		t.Fatalf("want 1 regression, got %v", regs)
	}
	if regs[0].Metric != "ns/op" || regs[0].Ratio < 2.4 || regs[0].Ratio > 2.6 {
		t.Fatalf("unexpected regression %+v", regs[0])
	}
}

func TestCompareWithinFactorPasses(t *testing.T) {
	base := report(
		Result{Name: "mem/migrate", NsPerOp: 50, AllocsPerOp: 0},
		Result{Name: "hist/build", NsPerOp: 20_000, AllocsPerOp: 0},
	)
	cur := report(
		Result{Name: "mem/migrate", NsPerOp: 90, AllocsPerOp: 0},
		Result{Name: "hist/build", NsPerOp: 25_000, AllocsPerOp: 3}, // within alloc slack
	)
	if regs := Compare(base, cur); len(regs) != 0 {
		t.Fatalf("want no regressions, got %v", regs)
	}
}

func TestCompareAllocRegression(t *testing.T) {
	base := report(Result{Name: "pebs/record", NsPerOp: 1000, AllocsPerOp: 1})
	cur := report(Result{Name: "pebs/record", NsPerOp: 1000, AllocsPerOp: 64})
	regs := Compare(base, cur)
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("want one allocs/op regression, got %v", regs)
	}
}

func TestCompareMissingBenchmark(t *testing.T) {
	base := report(Result{Name: "flight/record", NsPerOp: 50})
	regs := Compare(base, report())
	if len(regs) != 1 || regs[0].Metric != "missing" {
		t.Fatalf("want one missing regression, got %v", regs)
	}
}

func TestCompareIgnoresNewBenchmarks(t *testing.T) {
	cur := report(Result{Name: "brand/new", NsPerOp: 1e9, AllocsPerOp: 1e6})
	if regs := Compare(report(), cur); len(regs) != 0 {
		t.Fatalf("new benchmarks must not fail the gate, got %v", regs)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := report(Result{Name: "queue/tick", Iterations: 1234, NsPerOp: 98765.4, AllocsPerOp: 2, BytesPerOp: 128})
	rep.Go = "go1.22"
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_core.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := got.Find("queue/tick")
	if !ok || res != rep.Results[0] || got.Go != "go1.22" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

// TestGate checks the runner's gate wiring: an in-memory report against a
// baseline file on disk.
func TestGate(t *testing.T) {
	dir := t.TempDir()
	path, err := writeReport(report(
		Result{Name: "mem/migrate", NsPerOp: 100},
		Result{Name: "queue/tick", NsPerOp: 1000},
	), dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		current Report
		want    string // substring of the error; "" wants nil
	}{
		{"3x slower", report(
			Result{Name: "mem/migrate", NsPerOp: 300},
			Result{Name: "queue/tick", NsPerOp: 1000},
		), "mem/migrate: ns/op 100.0 -> 300.0"},
		{"missing op", report(
			Result{Name: "queue/tick", NsPerOp: 1000},
		), "mem/migrate: present in baseline but not in current run"},
		{"within 2x", report(
			Result{Name: "mem/migrate", NsPerOp: 190},
			Result{Name: "queue/tick", NsPerOp: 1900},
		), ""},
	} {
		var out bytes.Buffer
		err := gate(&out, path, tc.current)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: want pass, got %v", tc.name, err)
		case tc.want == "" && !strings.Contains(out.String(), "2 benchmarks within 2x"):
			t.Errorf("%s: pass line = %q", tc.name, out.String())
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: want error naming %q, got %v", tc.name, tc.want, err)
		}
	}
}

// TestBenchesRun smoke-runs the cheapest suite entry end to end; the full
// suite runs in CI's perf-gate job (go run ./internal/tools/corebench).
func TestBenchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark smoke skipped in -short")
	}
	for _, b := range Benches() {
		if b.Name != "flight/record" {
			continue
		}
		res := testing.Benchmark(b.Run)
		if res.N == 0 {
			t.Fatalf("%s: benchmark did not iterate", b.Name)
		}
	}
}

func TestBenchNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range Benches() {
		if seen[b.Name] {
			t.Fatalf("duplicate benchmark name %q", b.Name)
		}
		seen[b.Name] = true
		if b.Run == nil {
			t.Fatalf("%s: nil Run", b.Name)
		}
	}
}
