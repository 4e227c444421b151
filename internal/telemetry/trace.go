package telemetry

import (
	"bufio"
	"io"
	"strconv"
	"sync"
)

// MaxAttrs is the number of attributes one event can carry; extra
// attributes passed to Emit are dropped.
const MaxAttrs = 12

// Attr is one numeric event attribute. Keys must be plain identifiers
// (letters, digits, '_' — the JSONL encoder does not escape them).
type Attr struct {
	Key string
	Val float64
}

// F builds a float attribute.
func F(key string, val float64) Attr { return Attr{Key: key, Val: val} }

// I builds an integer-valued attribute.
func I(key string, val int) Attr { return Attr{Key: key, Val: float64(val)} }

// Event is one structured trace record: a simulation timestamp, a type tag
// from the schema (schema.go), the workload it concerns (WLNone if none),
// an optional free-form message, and up to MaxAttrs numeric attributes.
type Event struct {
	Seq    uint64
	T      float64
	Type   string
	WL     int
	Msg    string
	nattrs int
	attrs  [MaxAttrs]Attr
}

// WLNone marks an event not tied to a single workload.
const WLNone = -1

// Attrs returns the event's attributes (valid until the tracer reuses the
// slot; copy if retaining).
func (e *Event) Attrs() []Attr { return e.attrs[:e.nattrs] }

// Attr returns the value of the attribute named key and whether it is set.
func (e *Event) Attr(key string) (float64, bool) {
	for _, a := range e.Attrs() {
		if a.Key == key {
			return a.Val, true
		}
	}
	return 0, false
}

// Tracer records events into a bounded ring: emission is O(1), never
// allocates once the ring has grown to capacity, and arbitrarily long
// runs retain the most recent `capacity` events. An optional sink sees
// every event as it lands. All methods are safe for concurrent use and
// are no-ops on a nil receiver.
type Tracer struct {
	mu    sync.Mutex
	buf   ring[Event]
	count uint64 // total events ever emitted; also the last Seq
	sink  func(*Event)
}

// NewTracer returns a tracer retaining the last capacity events (<= 0
// selects DefaultTraceCapacity). Slots are allocated as events arrive.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: newRing[Event](capacity)}
}

// Enabled reports whether events are being recorded. Hot paths should
// guard event construction with it so that attribute evaluation costs
// nothing when tracing is off.
func (tr *Tracer) Enabled() bool { return tr != nil }

// SetSink installs (or clears, with nil) a function that receives every
// event after it is recorded. The sink runs synchronously under the
// tracer's lock, so delivery order matches Seq order; it must be fast,
// must not retain ev past the call, and must never call back into the
// tracer.
func (tr *Tracer) SetSink(sink func(ev *Event)) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.sink = sink
	tr.mu.Unlock()
}

// Emit records one event. Attributes beyond MaxAttrs are dropped.
func (tr *Tracer) Emit(t float64, typ string, wl int, attrs ...Attr) {
	tr.EmitMsg(t, typ, wl, "", attrs...)
}

// EmitMsg is Emit with a free-form message attached.
func (tr *Tracer) EmitMsg(t float64, typ string, wl int, msg string, attrs ...Attr) {
	if tr == nil {
		return
	}
	n := len(attrs)
	if n > MaxAttrs {
		n = MaxAttrs
	}
	tr.mu.Lock()
	ev := tr.buf.slot()
	tr.count++
	ev.Seq = tr.count
	ev.T = t
	ev.Type = typ
	ev.WL = wl
	ev.Msg = msg
	ev.nattrs = n
	copy(ev.attrs[:n], attrs[:n])
	if tr.sink != nil {
		tr.sink(ev)
	}
	tr.mu.Unlock()
}

// Len returns the number of events currently retained.
func (tr *Tracer) Len() int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.buf.len()
}

// Capacity returns how many events the tracer retains at most (0 on a
// nil receiver).
func (tr *Tracer) Capacity() int {
	if tr == nil {
		return 0
	}
	return tr.buf.max
}

// Count returns the total number of events ever emitted (retained or not).
func (tr *Tracer) Count() uint64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.count
}

// Dropped returns how many events have been overwritten by ring wrap.
func (tr *Tracer) Dropped() uint64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.buf.dropped
}

// Events returns a chronological copy of the retained events.
func (tr *Tracer) Events() []Event {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.buf.appendTo(make([]Event, 0, tr.buf.len()))
}

// EachAfter calls fn, oldest first, for every retained event with
// Seq > after (Seq is 1-based, so 0 visits them all) — the cursor
// behind views that filter the trace without copying it. fn runs under
// the tracer's lock and must not retain ev or call back into the
// tracer.
func (tr *Tracer) EachAfter(after uint64, fn func(ev *Event)) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i := 0; i < tr.buf.len(); i++ {
		if ev := tr.buf.at(i); ev.Seq > after {
			fn(ev)
		}
	}
}

// WriteJSONL renders the retained events, oldest first, one JSON object
// per line:
//
//	{"seq":17,"t":2.500,"type":"ppm.decision","wl":0,"usage":0.81,...}
//
// Attribute keys are flattened into the object; the reserved keys are
// "seq", "t", "type", "wl" and "msg" (present only when non-empty).
func (tr *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, ev := range tr.Events() {
		writeEventJSON(bw, &ev)
	}
	return bw.Flush()
}

func writeEventJSON(bw *bufio.Writer, ev *Event) {
	var num [32]byte
	bw.WriteString(`{"seq":`)
	bw.Write(strconv.AppendUint(num[:0], ev.Seq, 10))
	bw.WriteString(`,"t":`)
	bw.Write(appendFloat(num[:0], ev.T))
	bw.WriteString(`,"type":"`)
	bw.WriteString(ev.Type) // schema constants: no escaping needed
	bw.WriteString(`","wl":`)
	bw.Write(strconv.AppendInt(num[:0], int64(ev.WL), 10))
	if ev.Msg != "" {
		bw.WriteString(`,"msg":`)
		bw.Write(strconv.AppendQuote(num[:0], ev.Msg))
	}
	for _, a := range ev.Attrs() {
		bw.WriteString(`,"`)
		bw.WriteString(a.Key)
		bw.WriteString(`":`)
		bw.Write(appendFloat(num[:0], a.Val))
	}
	bw.WriteString("}\n")
}

// appendFloat renders v compactly, substituting null for values JSON
// cannot represent (NaN, ±Inf).
func appendFloat(dst []byte, v float64) []byte {
	if v != v || v > 1.7976931348623157e308 || v < -1.7976931348623157e308 {
		return append(dst, "null"...)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}
