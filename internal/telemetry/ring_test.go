package telemetry

import (
	"runtime"
	"slices"
	"testing"
)

// TestRing covers the one bounded log behind Tracer, SpanStore, the bus
// topic rings and Subscriber: wrap, overwrite counting, pop front,
// oldest-first order, and growth that stops at capacity.
func TestRing(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int
		push     int // values 1..push
		pop      int // then pop this many from the front
		want     []int
		popped   []int
		dropped  uint64
	}{
		{name: "empty", capacity: 4},
		{name: "partial", capacity: 4, push: 3, want: []int{1, 2, 3}},
		{name: "exactly full", capacity: 4, push: 4, want: []int{1, 2, 3, 4}},
		{name: "wrap", capacity: 4, push: 10, want: []int{7, 8, 9, 10}, dropped: 6},
		{name: "capacity one", capacity: 1, push: 3, want: []int{3}, dropped: 2},
		{name: "pop front", capacity: 4, push: 3, pop: 2, want: []int{3}, popped: []int{1, 2}},
		{name: "pop after wrap", capacity: 4, push: 6, pop: 3, want: []int{6}, popped: []int{3, 4, 5}, dropped: 2},
		{name: "pop past empty", capacity: 4, push: 2, pop: 3, popped: []int{1, 2}},
		{name: "growth stops at capacity", capacity: 100, push: 250, want: seq(151, 250), dropped: 150},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRing[int](tc.capacity)
			for v := 1; v <= tc.push; v++ {
				if over := r.push(v); over != (v > tc.capacity) {
					t.Fatalf("push(%d) overwrote = %v", v, over)
				}
				if len(r.buf) > tc.capacity {
					t.Fatalf("after %d pushes the ring holds %d slots, capacity %d", v, len(r.buf), tc.capacity)
				}
			}
			var popped []int
			for i := 0; i < tc.pop; i++ {
				if v, ok := r.pop(); ok {
					popped = append(popped, v)
				}
			}
			got := r.appendTo(nil)
			for i := 0; i < r.len(); i++ {
				if *r.at(i) != got[i] {
					t.Fatalf("at(%d) = %d, appendTo has %d", i, *r.at(i), got[i])
				}
			}
			if !slices.Equal(got, tc.want) || !slices.Equal(popped, tc.popped) ||
				r.len() != len(tc.want) || r.dropped != tc.dropped {
				t.Fatalf("held %v popped %v len %d dropped %d, want %v %v %d %d",
					got, popped, r.len(), r.dropped, tc.want, tc.popped, len(tc.want), tc.dropped)
			}
		})
	}
}

// TestRingRefillAfterPop interleaves pops and pushes across growth so
// the oldest element sits mid-buffer when the ring grows.
func TestRingRefillAfterPop(t *testing.T) {
	r := newRing[int](64)
	next, want := 1, []int{}
	for round := 0; round < 30; round++ { // net +3 a round: wraps near round 21
		for i := 0; i < 5; i++ {
			r.push(next)
			want = append(want, next)
			next++
		}
		if len(want) > 64 {
			want = want[len(want)-64:]
		}
		for i := 0; i < 2; i++ {
			v, _ := r.pop()
			if v != want[0] {
				t.Fatalf("round %d: pop = %d, want %d", round, v, want[0])
			}
			want = want[1:]
		}
		if got := r.appendTo(nil); !slices.Equal(got, want) {
			t.Fatalf("round %d: held %v, want %v", round, got, want)
		}
	}
}

func seq(from, to int) []int {
	var out []int
	for v := from; v <= to; v++ {
		out = append(out, v)
	}
	return out
}

// TestUnusedSinkIsSmall: the rings allocate on first use, so a per-run
// sink nobody writes to costs a few small objects, not its capacity.
func TestUnusedSinkIsSmall(t *testing.T) {
	const n, limit = 32, 64 << 10
	sinks := make([]*Telemetry, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range sinks {
		sinks[i] = NewWithConfig(Config{TraceCapacity: 1 << 12})
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= limit {
		t.Fatalf("NewWithConfig allocates %d B per sink, want < %d", per, limit)
	}
	runtime.KeepAlive(sinks)
}
