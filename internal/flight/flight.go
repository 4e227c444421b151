// Package flight is the per-run flight-recorder view: the recent core
// events of a run (start and end, page promotions and demotions, SLO
// violations, policy switches, load shifts) read out of the run's
// trace, so a slow, failed, or cancelled cell can be inspected after
// the fact. The run's telemetry.Tracer is the only recorder; this
// package owns the wire types (Event, Dump) and the one mapping from
// trace events onto them, shared by the /flight endpoint and the live
// SSE `flight` events.
package flight

import (
	"encoding/json"
	"io"

	"github.com/tieredmem/mtat/internal/telemetry"
)

// Event kinds carried by the view: the trace event types of the same
// name (see telemetry's schema for their attributes).
const (
	// KindRunStart opens a run. Detail carries the policy name; Value
	// the scheduled duration in seconds.
	KindRunStart = telemetry.EvRunStart
	// KindRunEnd closes a run. Detail carries the policy name; Value
	// the LC SLO-violation rate.
	KindRunEnd = telemetry.EvRunEnd
	// KindPromotion reports pages promoted to FMem during one tick
	// (Value = pages).
	KindPromotion = telemetry.EvPromotion
	// KindDemotion reports pages demoted to SMem during one tick
	// (Value = pages).
	KindDemotion = telemetry.EvDemotion
	// KindSLOViolation marks a tick whose LC requests exceeded the SLO
	// (Value = fraction of the tick's requests beyond it).
	KindSLOViolation = telemetry.EvSLOViolation
	// KindPolicySwitch marks a change in the per-request LC stall the
	// policy imposes (Value = new stall in seconds, Detail = policy).
	KindPolicySwitch = telemetry.EvPolicySwitch
	// KindLoadShift marks a load-pattern level change (Value = new
	// offered fraction of max load).
	KindLoadShift = telemetry.EvLoadShift
)

// Event is one flight-recorder entry.
type Event struct {
	// Seq is the event's trace sequence number (1-based, monotonic
	// across the run); the view skips trace events of other kinds, so
	// consecutive entries need not be consecutive numbers.
	Seq uint64 `json:"seq"`
	// T is the simulation time in seconds.
	T float64 `json:"t"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// WL is the workload ID the event concerns, -1 when none.
	WL int `json:"wl"`
	// Value is the event's numeric payload (see the Kind* docs).
	Value float64 `json:"value"`
	// Detail is an optional human-readable annotation.
	Detail string `json:"detail,omitempty"`
}

// WLNone marks an event that concerns no particular workload.
const WLNone = telemetry.WLNone

// FromTrace maps one trace event onto a flight Event: Value from the
// kind's one named attribute, Detail from the message. ok is false for
// trace types the flight view does not carry.
func FromTrace(ev *telemetry.Event) (fe Event, ok bool) {
	var key string
	switch ev.Type {
	case KindRunStart:
		key = "duration_s"
	case KindRunEnd:
		key = "violation_rate"
	case KindSLOViolation:
		key = "frac"
	case KindPromotion, KindDemotion:
		key = "pages"
	case KindPolicySwitch:
		key = "stall_s"
	case KindLoadShift:
		key = "load"
	default:
		return Event{}, false
	}
	v, _ := ev.Attr(key)
	return Event{Seq: ev.Seq, T: ev.T, Kind: ev.Type, WL: ev.WL, Value: v, Detail: ev.Msg}, true
}

// Dump is the JSON document served for one run's flight recorder.
type Dump struct {
	// Capacity is the run trace's ring size; Dropped counts trace
	// events it overwrote — nonzero means Events is the tail of a
	// longer history.
	Capacity int     `json:"capacity"`
	Dropped  uint64  `json:"dropped"`
	Events   []Event `json:"events"`
}

// View captures the flight events of tr with trace Seq > after (0
// selects them all), oldest first. A nil tracer yields an empty dump
// with a non-nil Events slice.
func View(tr *telemetry.Tracer, after uint64) Dump {
	d := Dump{Capacity: tr.Capacity(), Dropped: tr.Dropped(), Events: []Event{}}
	tr.EachAfter(after, func(ev *telemetry.Event) {
		if fe, ok := FromTrace(ev); ok {
			d.Events = append(d.Events, fe)
		}
	})
	return d
}

// WriteJSON renders the dump as indented JSON.
func (d Dump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
