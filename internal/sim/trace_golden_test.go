package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/tieredmem/mtat/internal/core"
	"github.com/tieredmem/mtat/internal/policy"
	"github.com/tieredmem/mtat/internal/telemetry"
)

var updateTrace = flag.Bool("update", false, "re-pin testdata/trace_*.jsonl")

// traceRun runs the fixed-seed golden scenario (as TestRunEmitsTelemetry
// builds it) under MEMTIS or MTAT and returns its trace as JSONL.
func traceRun(t *testing.T, mtat bool) []byte {
	t.Helper()
	scn := testScenario(t, 1)
	scn.DurationSeconds = 30
	scn.TickSeconds = 0.25
	tel := telemetry.New()
	scn.Telemetry = tel
	var pol policy.Policy = policy.NewMEMTIS()
	if mtat {
		m, err := core.New(core.VariantFull, core.DefaultPPMConfig(
			scn.LC.SLOSeconds, scn.LC.MaxLoadRPS*float64(scn.LC.MemTouches)))
		if err != nil {
			t.Fatal(err)
		}
		pol = m
	}
	if _, err := RunScenario(scn, pol); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tel.Tracer().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// flightKinds are the trace types that joined the run trace when it
// became the run's only event recorder; a base golden predates them.
var flightKinds = []string{
	telemetry.EvPromotion, telemetry.EvDemotion,
	telemetry.EvPolicySwitch, telemetry.EvLoadShift,
}

// withoutFlightKinds drops the flightKinds lines from a JSONL trace and
// strips each remaining line's leading "seq" field, which those lines
// renumber.
func withoutFlightKinds(t *testing.T, jsonl []byte) []string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(strings.TrimSuffix(string(jsonl), "\n"), "\n") {
		var ev struct{ Type string }
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if slices.Contains(flightKinds, ev.Type) {
			continue
		}
		_, rest, ok := strings.Cut(line, ",")
		if !ok || !strings.HasPrefix(line, `{"seq":`) {
			t.Fatalf("trace line without leading seq: %q", line)
		}
		out = append(out, rest)
	}
	return out
}

// TestTraceGolden pins the run trace's JSONL wire format for a short
// fixed-seed MEMTIS run and a short MTAT (full variant) run. Each run
// is compared byte-for-byte with testdata/trace_<name>.jsonl (re-pin
// with -update) and, with the flight kinds dropped and seq stripped,
// with testdata/trace_<name>.base.jsonl — the trace as it was before
// the flight kinds were recorded into it, which -update never touches.
func TestTraceGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		mtat bool
	}{{"memtis", false}, {"mtat_full", true}} {
		t.Run(tc.name, func(t *testing.T) {
			got := traceRun(t, tc.mtat)
			path := filepath.Join("testdata", "trace_"+tc.name+".jsonl")
			if *updateTrace {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (re-pin with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("trace differs from %s (intended change? re-pin with -update)", path)
			}
			base, err := os.ReadFile(filepath.Join("testdata", "trace_"+tc.name+".base.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if g, w := withoutFlightKinds(t, got), withoutFlightKinds(t, base); !slices.Equal(g, w) {
				t.Errorf("trace without the flight kinds differs from the base golden: %d vs %d lines", len(g), len(w))
				for i := range min(len(g), len(w)) {
					if g[i] != w[i] {
						t.Fatalf("first difference at line %d:\n got %s\nwant %s", i+1, g[i], w[i])
					}
				}
			}
			if strings.Count(string(got), "\n") == strings.Count(string(base), "\n") {
				t.Error("trace carries no flight-kind lines")
			}
		})
	}
}
