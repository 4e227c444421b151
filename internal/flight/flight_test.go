package flight

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"github.com/tieredmem/mtat/internal/telemetry"
)

// promote records one promotion the way the simulator's tick loop does.
func promote(tr *telemetry.Tracer, t float64, pages int) {
	tr.Emit(t, telemetry.EvPromotion, telemetry.WLNone, telemetry.I("pages", pages))
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var tr *telemetry.Tracer
	promote(tr, 0, 1) // must not panic
	d := View(tr, 0)
	if d.Events == nil || len(d.Events) != 0 || d.Capacity != 0 || d.Dropped != 0 {
		t.Fatalf("nil tracer view = %#v, want empty with non-nil events", d)
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"events": []`)) {
		t.Fatalf("nil tracer dump = %s, want \"events\": []", buf.String())
	}
}

func TestRecordOrderAndSeq(t *testing.T) {
	tr := telemetry.NewTracer(8)
	for i := 0; i < 5; i++ {
		promote(tr, float64(i), i)
	}
	d := View(tr, 0)
	if len(d.Events) != 5 {
		t.Fatalf("len = %d, want 5", len(d.Events))
	}
	for i, ev := range d.Events {
		if ev.Seq != uint64(i+1) || ev.T != float64(i) || ev.Value != float64(i) {
			t.Fatalf("event %d = %+v, want seq %d, t/value %d", i, ev, i+1, i)
		}
	}
	if d.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0", d.Dropped)
	}
}

// TestRingOverwritesOldest: the view reports the trace ring's loss and
// serves its surviving tail oldest-first.
func TestRingOverwritesOldest(t *testing.T) {
	tr := telemetry.NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(float64(i), telemetry.EvDemotion, telemetry.WLNone, telemetry.I("pages", 1))
	}
	d := View(tr, 0)
	if len(d.Events) != 4 || d.Dropped != 6 {
		t.Fatalf("len/dropped = %d/%d, want 4/6", len(d.Events), d.Dropped)
	}
	for i, ev := range d.Events {
		if want := uint64(7 + i); ev.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, want)
		}
	}
}

// TestDefaultCapacity: the dump's capacity is the trace ring's.
func TestDefaultCapacity(t *testing.T) {
	if got := View(telemetry.NewTracer(0), 0).Capacity; got != telemetry.DefaultTraceCapacity {
		t.Fatalf("capacity = %d, want %d", got, telemetry.DefaultTraceCapacity)
	}
}

// TestSnapshotJSONRoundTrip pins the mapping of every flight kind and
// that the view skips every other trace type.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	tr := telemetry.NewTracer(16)
	tr.EmitMsg(0, telemetry.EvRunStart, WLNone, "MTAT", telemetry.F("duration_s", 30), telemetry.F("tick_s", 0.1))
	tr.EmitMsg(0, telemetry.EvRunWorkload, 0, "redis", telemetry.F("is_lc", 1))
	tr.Emit(0, telemetry.EvLoadShift, 0, telemetry.F("load", 0.5))
	tr.Emit(1.5, telemetry.EvSLOViolation, 0, telemetry.F("p99_s", 0.03), telemetry.F("frac", 0.25))
	tr.Emit(1.5, telemetry.EvPPMDecision, 0, telemetry.F("usage", 0.8))
	promote(tr, 1.5, 12)
	tr.Emit(1.5, telemetry.EvDemotion, WLNone, telemetry.I("pages", 3))
	tr.EmitMsg(1.5, telemetry.EvPolicySwitch, WLNone, "TPP", telemetry.F("stall_s", 2e-6))
	tr.EmitMsg(30, telemetry.EvRunEnd, WLNone, "MTAT", telemetry.F("violation_rate", 0.01), telemetry.F("ticks", 300))

	var buf bytes.Buffer
	if err := View(tr, 0).WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var d Dump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	want := []Event{
		{Seq: 1, T: 0, Kind: KindRunStart, WL: WLNone, Value: 30, Detail: "MTAT"},
		{Seq: 3, T: 0, Kind: KindLoadShift, WL: 0, Value: 0.5},
		{Seq: 4, T: 1.5, Kind: KindSLOViolation, WL: 0, Value: 0.25},
		{Seq: 6, T: 1.5, Kind: KindPromotion, WL: WLNone, Value: 12},
		{Seq: 7, T: 1.5, Kind: KindDemotion, WL: WLNone, Value: 3},
		{Seq: 8, T: 1.5, Kind: KindPolicySwitch, WL: WLNone, Value: 2e-6, Detail: "TPP"},
		{Seq: 9, T: 30, Kind: KindRunEnd, WL: WLNone, Value: 0.01, Detail: "MTAT"},
	}
	if d.Capacity != 16 || d.Dropped != 0 || len(d.Events) != len(want) {
		t.Fatalf("dump = %+v", d)
	}
	for i := range want {
		if d.Events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, d.Events[i], want[i])
		}
	}
}

// TestConcurrentRecordAndDump exercises the live-dump path: readers
// take views while writers emit. Run with -race.
func TestConcurrentRecordAndDump(t *testing.T) {
	tr := telemetry.NewTracer(64)
	const writers, perWriter = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				promote(tr, 0, 1)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = View(tr, uint64(i))
		}
	}()
	wg.Wait()
	<-done
	d := View(tr, 0)
	if total := uint64(len(d.Events)) + d.Dropped; total != writers*perWriter {
		t.Fatalf("len+dropped = %d, want %d", total, writers*perWriter)
	}
	// Sequence numbers must be unique and dense over the retained tail.
	for i := 1; i < len(d.Events); i++ {
		if d.Events[i].Seq != d.Events[i-1].Seq+1 {
			t.Fatalf("non-dense seq at %d: %d then %d", i, d.Events[i-1].Seq, d.Events[i].Seq)
		}
	}
}

// TestEventsAfterCursor pins the ?after= contract: trace Seq is 1-based,
// so after=0 serves everything and after=<max seq> serves nothing.
func TestEventsAfterCursor(t *testing.T) {
	tr := telemetry.NewTracer(8)
	for i := 0; i < 5; i++ { // seqs 1..5
		promote(tr, float64(i), 1)
	}
	if d := View(tr, 0); len(d.Events) != 5 || d.Events[0].Seq != 1 {
		t.Fatalf("View(0) = %+v, want seqs 1..5", d.Events)
	}
	d := View(tr, 3)
	if len(d.Events) != 2 || d.Events[0].Seq != 4 || d.Events[1].Seq != 5 {
		t.Fatalf("View(3) = %+v, want seqs 4,5", d.Events)
	}
	if d.Capacity != 8 || d.Dropped != 0 {
		t.Fatalf("View(3) capacity/dropped = %d/%d, want 8/0", d.Capacity, d.Dropped)
	}
	if d := View(tr, 5); d.Events == nil || len(d.Events) != 0 {
		t.Fatalf("View(newest) = %#v, want empty non-nil", d.Events)
	}
}

// TestSinkSeesEveryEventInOrder: a tracer sink mapping through FromTrace
// sees every flight event once, in Seq order, even past ring wrap.
func TestSinkSeesEveryEventInOrder(t *testing.T) {
	tr := telemetry.NewTracer(4) // smaller than the event count: sink must outlive drops
	var got []uint64
	tr.SetSink(func(ev *telemetry.Event) {
		if fe, ok := FromTrace(ev); ok {
			got = append(got, fe.Seq)
		}
	})
	for i := 0; i < 10; i++ {
		promote(tr, 0, 1)
		tr.Emit(0, telemetry.EvPPMDecision, 0) // not a flight kind
	}
	if len(got) != 10 {
		t.Fatalf("sink saw %d flight events, want 10", len(got))
	}
	for i, seq := range got {
		if seq != uint64(2*i+1) {
			t.Fatalf("sink out of order at %d: %v", i, got)
		}
	}
	// Detach: no further deliveries.
	tr.SetSink(nil)
	promote(tr, 0, 1)
	if len(got) != 10 {
		t.Fatal("sink called after detach")
	}
	var nilTr *telemetry.Tracer
	nilTr.SetSink(func(*telemetry.Event) {}) // must not panic
}
