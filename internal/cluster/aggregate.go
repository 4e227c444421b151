package cluster

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
	"strings"

	"github.com/tieredmem/mtat/internal/server"
	"github.com/tieredmem/mtat/internal/sim"
)

// CellSummary is one sweep cell's aggregate outcome — the per-cell row
// of the sweep's result table, exportable as JSON, JSONL, or CSV.
type CellSummary struct {
	Sweep string `json:"sweep"`
	Index int    `json:"index"`
	Label string `json:"label"`
	State string `json:"state"`
	// Node is the registry name of the node that finished the cell.
	Node string `json:"node,omitempty"`
	// Attempts counts distinct nodes that accepted the cell (> 1 means
	// the cell survived a node failure).
	Attempts int    `json:"attempts"`
	Error    string `json:"error,omitempty"`
	// Trace is the distributed trace this cell's run joined (hex trace
	// ID), "" when the sweep carried no traceparent. Feed it to
	// `mtatctl trace` to walk from an exported data point back to the
	// spans that produced it.
	Trace string `json:"trace,omitempty"`

	// Swept coordinates.
	Policy   string  `json:"policy"`
	LC       string  `json:"lc,omitempty"`
	BEs      string  `json:"bes,omitempty"`
	Load     string  `json:"load,omitempty"`
	SLOScale float64 `json:"slo_scale,omitempty"`
	Seed     int64   `json:"seed"`

	// Outcome metrics (zero when the cell failed before completing).
	SLOMet          bool    `json:"slo_met"`
	LCViolationRate float64 `json:"lc_violation_rate"`
	LCMaxP99        float64 `json:"lc_max_p99_s"`
	LCMeanP99       float64 `json:"lc_mean_p99_s"`
	BEMinNP         float64 `json:"be_min_np"`
	BEThroughput    float64 `json:"be_throughput"`
	MigratedBytes   int64   `json:"migrated_bytes"`
	Ticks           int     `json:"ticks"`
	// WallSeconds is the cell's fleet-side wall time, dispatch included.
	WallSeconds float64 `json:"wall_s"`
}

// newCellSummary projects a cell and its terminal run status onto the
// export row. status may be nil for cells that failed before any node
// finished them; trace is the sweep's trace ID, used as the fallback
// when no node-side status (with its own view of the trace) exists.
func newCellSummary(sweepName string, cell sim.Cell, state, node, errMsg string,
	attempts int, wallSeconds float64, trace string, status *server.RunStatus) CellSummary {
	s := CellSummary{
		Sweep:       sweepName,
		Index:       cell.Index,
		Label:       cell.Label,
		State:       state,
		Node:        node,
		Attempts:    attempts,
		Error:       errMsg,
		Trace:       trace,
		Policy:      cell.Spec.PolicyName(),
		LC:          cell.Spec.LC,
		BEs:         strings.Join(cell.Spec.BEs, "+"),
		SLOScale:    cell.Spec.SLOScale,
		Seed:        cell.Spec.Seed,
		WallSeconds: wallSeconds,
	}
	if cell.Spec.Load != nil {
		s.Load = cell.Spec.Load.Kind
	}
	if status != nil && status.Trace != "" {
		s.Trace = status.Trace
	}
	if status != nil && status.Result != nil {
		r := status.Result
		s.SLOMet = r.SLOMet
		s.LCViolationRate = r.LCViolationRate
		s.LCMaxP99 = r.LCMaxP99
		s.LCMeanP99 = r.LCMeanP99
		s.BEMinNP = r.BEFairness
		s.BEThroughput = r.BEThroughput
		s.MigratedBytes = r.MigratedBytes
		s.Ticks = r.Ticks
	}
	return s
}

// RunResult maps the summary's outcome back onto the node's result —
// newCellSummary's projection run the other way, so the hypothesis
// harness reads a fleet cell exactly as it reads a run on one node.
func (s CellSummary) RunResult() server.RunResult {
	return server.RunResult{
		Policy:          s.Policy,
		SLOMet:          s.SLOMet,
		LCViolationRate: s.LCViolationRate,
		LCMaxP99:        s.LCMaxP99,
		LCMeanP99:       s.LCMeanP99,
		BEFairness:      s.BEMinNP,
		BEThroughput:    s.BEThroughput,
		MigratedBytes:   s.MigratedBytes,
		Ticks:           s.Ticks,
	}
}

// WriteSummariesJSONL writes one JSON object per line.
func WriteSummariesJSONL(w io.Writer, sums []CellSummary) error {
	enc := json.NewEncoder(w)
	for _, s := range sums {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// csvHeader is the column order of the CSV export.
var csvHeader = []string{
	"sweep", "index", "label", "state", "node", "attempts", "error", "trace",
	"policy", "lc", "bes", "load", "slo_scale", "seed",
	"slo_met", "lc_violation_rate", "lc_max_p99_s", "lc_mean_p99_s",
	"be_min_np", "be_throughput", "migrated_bytes", "ticks", "wall_s",
}

// WriteSummariesCSV writes the summaries as CSV with a header row.
func WriteSummariesCSV(w io.Writer, sums []CellSummary) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, s := range sums {
		rec := []string{
			s.Sweep, strconv.Itoa(s.Index), s.Label, s.State, s.Node,
			strconv.Itoa(s.Attempts), s.Error, s.Trace,
			s.Policy, s.LC, s.BEs, s.Load, f(s.SLOScale),
			strconv.FormatInt(s.Seed, 10),
			strconv.FormatBool(s.SLOMet), f(s.LCViolationRate),
			f(s.LCMaxP99), f(s.LCMeanP99),
			f(s.BEMinNP), f(s.BEThroughput),
			strconv.FormatInt(s.MigratedBytes, 10),
			strconv.Itoa(s.Ticks), f(s.WallSeconds),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
