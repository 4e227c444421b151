package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// EventBus is the push half of the observability layer: a bounded
// fan-out bus that carries run lifecycle transitions, flight-recorder
// events, periodic core-stats deltas, and cell settlements from the
// daemons to live subscribers (the SSE endpoints behind `mtatctl
// watch`).
//
// The bus follows the flight-recorder discipline: everything is bounded
// and every loss is counted. Each topic keeps a bounded replay ring so a
// subscriber that reconnects with `Last-Event-ID` resumes without gaps
// (as long as the ring still holds the missed events — a deeper gap is
// reported exactly, never papered over). Each subscriber owns a bounded
// ring too: a slow consumer drops its own oldest events and counts
// them, without ever blocking a publisher or another subscriber.
//
// Cost discipline mirrors the rest of the telemetry package: a nil
// *EventBus accepts every call as a no-op, and a non-nil bus with no
// subscriber and no retained topic rejects publishes on a single atomic
// load, so hot paths guard with Active(topic) and pay nothing — not
// even the interface boxing of the payload — while nobody is watching
// (verified by BenchmarkBusPublishInactive and the AllocsPerRun gate in
// bus_test.go).
//
// Topic retention starts at the first Subscribe for that topic and
// survives the subscriber going away, which is what makes `Last-Event-ID`
// resume work across a dropped connection: events published while no
// subscriber is attached still land in the ring. Topics are dropped
// explicitly (DropTopic — the daemons call it when a run or sweep is
// evicted) or by the LRU cap.
type EventBus struct {
	// active mirrors len(subs)+len(topics) so Publish and Active can
	// reject on one atomic load while the bus is completely idle — the
	// common case on a daemon nobody is watching.
	active atomic.Int64

	mu     sync.Mutex
	nextID uint64
	epoch  string
	topics map[string]*topicRing
	subs   map[*Subscriber]struct{}

	ringCap   int
	subCap    int
	maxTopics int

	// dropped counts subscriber-side overflow across the bus's lifetime
	// (each Subscriber also counts its own); synced into the
	// MetricBusDropped counter by SyncDropStats-style callers.
	dropped atomic.Uint64
	// published counts events accepted onto the bus.
	published atomic.Uint64
}

// BusEvent is one bus entry. Data is an arbitrary JSON-marshalable
// payload; the SSE layer encodes it once per delivery.
type BusEvent struct {
	// ID is the bus-assigned monotonic sequence number (1-based). IDs
	// are only meaningful within one bus epoch — a daemon restart
	// starts a new bus with a new epoch and IDs from 1.
	ID uint64 `json:"id"`
	// TS is the wall-clock publish time.
	TS time.Time `json:"ts"`
	// Topic scopes the event ("run/r000001", "sweep/s000001"). The
	// firehose subscription (topic "") receives every topic.
	Topic string `json:"topic"`
	// Kind names the payload schema (see the EvBus* constants).
	Kind string `json:"kind"`
	// Tenant is the owning tenant ("" for anonymous/system events); the
	// firehose endpoint filters on it for non-admin subscribers.
	Tenant string `json:"tenant,omitempty"`
	// Data is the kind-specific payload.
	Data any `json:"data,omitempty"`
}

// Bus event kinds published by the daemons.
const (
	// EvBusRunState carries a server.RunStatus on every run lifecycle
	// transition (queued, running, done, failed, cancelled).
	EvBusRunState = "run.state"
	// EvBusRunStats carries a periodic mid-run core-stats delta
	// (server.RunStatsDelta) sampled from the run's private registry.
	EvBusRunStats = "run.stats"
	// EvBusFlight carries one flight.Event, forwarded live from the
	// run's flight recorder.
	EvBusFlight = "flight"
	// EvBusSweepState carries a cluster.SweepStatus on sweep lifecycle
	// transitions (submitted, resumed, done, failed, cancelled).
	EvBusSweepState = "sweep.state"
	// EvBusCellSettled carries a cluster.CellSummary when a sweep cell
	// settles (done or failed).
	EvBusCellSettled = "cell.settled"
)

// EventBus sizing defaults.
const (
	// DefaultBusRingCapacity is the per-topic replay ring size.
	DefaultBusRingCapacity = 1024
	// DefaultBusSubCapacity is the per-subscriber buffer size.
	DefaultBusSubCapacity = 256
	// DefaultBusMaxTopics caps retained topic rings; beyond it the
	// least-recently-published topic is evicted.
	DefaultBusMaxTopics = 256
)

// BusConfig sizes an EventBus.
type BusConfig struct {
	// RingCapacity is the per-topic replay ring size (<= 0 selects
	// DefaultBusRingCapacity).
	RingCapacity int
	// SubCapacity is the per-subscriber buffer size (<= 0 selects
	// DefaultBusSubCapacity).
	SubCapacity int
	// MaxTopics caps retained topic rings (<= 0 selects
	// DefaultBusMaxTopics).
	MaxTopics int
}

// NewEventBus builds a bus with the given sizing.
func NewEventBus(cfg BusConfig) *EventBus {
	if cfg.RingCapacity <= 0 {
		cfg.RingCapacity = DefaultBusRingCapacity
	}
	if cfg.SubCapacity <= 0 {
		cfg.SubCapacity = DefaultBusSubCapacity
	}
	if cfg.MaxTopics <= 0 {
		cfg.MaxTopics = DefaultBusMaxTopics
	}
	return &EventBus{
		epoch:     NewSpanID().String(),
		topics:    make(map[string]*topicRing),
		subs:      make(map[*Subscriber]struct{}),
		ringCap:   cfg.RingCapacity,
		subCap:    cfg.SubCapacity,
		maxTopics: cfg.MaxTopics,
	}
}

// Epoch identifies this bus incarnation (random per construction). SSE
// event IDs are rendered "<epoch>-<id>", so a client resuming against a
// restarted daemon is detected by epoch mismatch instead of silently
// resuming into an unrelated ID space.
func (b *EventBus) Epoch() string {
	if b == nil {
		return ""
	}
	return b.epoch
}

// Active reports whether a publish to topic would be delivered or
// retained — the hot-path guard callers use to skip building the event
// entirely. The first load rejects in one atomic op while the bus is
// completely idle; otherwise the precise answer is "a ring retains this
// topic, or a subscriber matches it".
func (b *EventBus) Active(topic string) bool {
	if b == nil || b.active.Load() == 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.topics[topic]; ok {
		return true
	}
	for s := range b.subs {
		if s.topic == "" || s.topic == topic {
			return true
		}
	}
	return false
}

// Publish assigns the event its ID and fans it out: into the topic's
// replay ring (when one is retained) and to every matching subscriber.
// Returns the assigned ID, 0 when the event was not accepted (nil bus,
// idle bus, or no ring and no matching subscriber). Publish never
// blocks: a full subscriber buffer drops that subscriber's oldest
// event and counts the loss.
func (b *EventBus) Publish(ev BusEvent) uint64 {
	if b == nil || b.active.Load() == 0 {
		return 0
	}
	b.mu.Lock()
	ring := b.topics[ev.Topic]
	matched := ring != nil
	if !matched {
		for s := range b.subs {
			if s.topic == "" || s.topic == ev.Topic {
				matched = true
				break
			}
		}
	}
	if !matched {
		b.mu.Unlock()
		return 0
	}
	b.nextID++
	ev.ID = b.nextID
	if ev.TS.IsZero() {
		ev.TS = time.Now()
	}
	if ring != nil {
		ring.push(ev)
	}
	for s := range b.subs {
		if s.topic == "" || s.topic == ev.Topic {
			if !s.offer(ev) {
				b.dropped.Add(1)
			}
		}
	}
	b.mu.Unlock()
	b.published.Add(1)
	return ev.ID
}

// Subscribe attaches a subscriber to topic ("" subscribes the firehose:
// every topic). Retained events with ID > afterID are replayed into the
// subscriber's buffer first — for a named topic from its ring (created
// on this call if absent, which starts retention), for the firehose
// from every ring merged in ID order. When afterID predates the oldest
// retained event, the subscriber's Gap reports exactly how many events
// are unrecoverable. filter, when non-nil, drops events it returns
// false for (the firehose endpoint scopes tenants with it).
func (b *EventBus) Subscribe(topic string, afterID uint64, filter func(BusEvent) bool) *Subscriber {
	if b == nil {
		return nil
	}
	s := &Subscriber{
		bus:    b,
		topic:  topic,
		filter: filter,
		buf:    newRing[BusEvent](b.subCap),
		notify: make(chan struct{}, 1),
	}
	b.mu.Lock()
	var replay []BusEvent
	if topic != "" {
		ring := b.topics[topic]
		if ring == nil {
			ring = newTopicRing(b.ringCap)
			// Recency watermark: an empty just-created ring must rank as
			// the most recent, or the LRU eviction below would victimize
			// the very topic being subscribed.
			ring.lastID = b.nextID
			b.topics[topic] = ring
			b.evictTopicsLocked()
		}
		replay = ring.after(afterID)
		s.gap = ring.missing(afterID)
	} else {
		for _, ring := range b.topics {
			replay = append(replay, ring.after(afterID)...)
			s.gap += ring.missing(afterID)
		}
		sortBusEvents(replay)
	}
	// The replay must land intact and strictly before any live event:
	// grow the buffer to hold the whole burst (drop-oldest here would
	// silently reopen the gap the resume just closed), and offer it
	// before registering the subscriber so a concurrent Publish cannot
	// interleave a newer event ahead of older replayed ones.
	if len(replay) > b.subCap {
		s.buf = newRing[BusEvent](len(replay) + b.subCap)
	}
	for _, ev := range replay {
		if !s.offer(ev) {
			b.dropped.Add(1)
		}
	}
	b.subs[s] = struct{}{}
	b.updateActiveLocked()
	b.mu.Unlock()
	return s
}

// DropTopic releases a topic's replay ring — the daemons call it when
// the run or sweep behind the topic is evicted. Live subscribers keep
// streaming; only resume history is released.
func (b *EventBus) DropTopic(topic string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	delete(b.topics, topic)
	b.updateActiveLocked()
	b.mu.Unlock()
}

// unsubscribe detaches s. Called via Subscriber.Close.
func (b *EventBus) unsubscribe(s *Subscriber) {
	b.mu.Lock()
	delete(b.subs, s)
	b.updateActiveLocked()
	b.mu.Unlock()
}

// Dropped returns the total subscriber-side overflow across the bus's
// lifetime.
func (b *EventBus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.dropped.Load()
}

// Published returns the number of events accepted onto the bus.
func (b *EventBus) Published() uint64 {
	if b == nil {
		return 0
	}
	return b.published.Load()
}

// SyncMetrics mirrors the bus's cumulative publish/overflow accounting
// into reg (MetricBusPublished, MetricBusDropped), raising each counter
// to the bus's running total.
func (b *EventBus) SyncMetrics(reg *Registry) {
	reg.Counter(MetricBusPublished).RaiseTo(b.Published())
	reg.Counter(MetricBusDropped).RaiseTo(b.Dropped())
}

// Subscribers returns the number of attached subscribers.
func (b *EventBus) Subscribers() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// updateActiveLocked refreshes the idle fast-path mirror. Callers hold
// b.mu.
func (b *EventBus) updateActiveLocked() {
	b.active.Store(int64(len(b.subs) + len(b.topics)))
}

// evictTopicsLocked enforces the retained-topic cap by dropping the
// ring whose newest event is oldest (least recently published). Callers
// hold b.mu.
func (b *EventBus) evictTopicsLocked() {
	for len(b.topics) > b.maxTopics {
		victim := ""
		var oldest uint64
		for name, ring := range b.topics {
			if victim == "" || ring.lastID < oldest {
				victim, oldest = name, ring.lastID
			}
		}
		delete(b.topics, victim)
	}
}

// sortBusEvents orders a replay batch by ID (insertion sort — batches
// are small and mostly sorted, coming from per-topic rings that are
// each already ordered).
func sortBusEvents(evs []BusEvent) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j-1].ID > evs[j].ID; j-- {
			evs[j-1], evs[j] = evs[j], evs[j-1]
		}
	}
}

// topicRing is one topic's bounded replay history.
type topicRing struct {
	events ring[BusEvent]
	// firstID is the ID of the first event ever pushed (0 before any);
	// lastID the newest. Together with the ring contents they make gap
	// accounting exact.
	firstID uint64
	lastID  uint64
}

func newTopicRing(capacity int) *topicRing {
	return &topicRing{events: newRing[BusEvent](capacity)}
}

func (r *topicRing) push(ev BusEvent) {
	if r.firstID == 0 {
		r.firstID = ev.ID
	}
	r.lastID = ev.ID
	r.events.push(ev)
}

// oldestID returns the ID of the oldest retained event, 0 when empty.
func (r *topicRing) oldestID() uint64 {
	if r.events.len() == 0 {
		return 0
	}
	return r.events.at(0).ID
}

// after returns retained events with ID > afterID, oldest first.
func (r *topicRing) after(afterID uint64) []BusEvent {
	var out []BusEvent
	for i := 0; i < r.events.len(); i++ {
		if ev := r.events.at(i); ev.ID > afterID {
			out = append(out, *ev)
		}
	}
	return out
}

// missing reports how many of this topic's events in (afterID, now]
// the ring no longer retains — the exact resume gap.
func (r *topicRing) missing(afterID uint64) uint64 {
	oldest := r.oldestID()
	if oldest == 0 {
		// Empty ring: if events were ever pushed the ring has since been
		// rebuilt, which cannot happen (rings only drop whole); nothing
		// is missing.
		return 0
	}
	// Events with ID < oldest are gone, but only the ones on this topic
	// are the subscriber's loss; topic IDs are bus-global so the precise
	// per-topic count is unknowable once overwritten. What IS exact:
	// whether the requested resume point is still covered. Report the
	// global-ID distance as an upper bound when it is not.
	if afterID+1 >= oldest || afterID >= r.lastID {
		return 0
	}
	if afterID+1 < r.firstID {
		// Resuming from before this topic existed (or from another
		// epoch): replay-from-start is complete coverage, no gap.
		if r.firstID == oldest {
			return 0
		}
		return oldest - r.firstID
	}
	return oldest - afterID - 1
}

// Subscriber is one attached consumer: a bounded ring drained by Next.
// A nil subscriber (from a nil bus) yields no events and closes
// immediately.
type Subscriber struct {
	bus    *EventBus
	topic  string
	filter func(BusEvent) bool

	mu     sync.Mutex
	buf    ring[BusEvent]
	gap    uint64
	closed bool

	notify chan struct{}
}

// offer enqueues ev, dropping the oldest buffered event on overflow.
// Returns false when the event displaced another (the loss is counted
// here and bus-wide by the caller).
func (s *Subscriber) offer(ev BusEvent) bool {
	if s.filter != nil && !s.filter(ev) {
		return true
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return true
	}
	overflowed := s.buf.push(ev)
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return !overflowed
}

// Next blocks until an event is available, the subscriber is closed, or
// done is closed. The second result is false when no more events will
// come (closed, or done fired with an empty buffer).
func (s *Subscriber) Next(done <-chan struct{}) (BusEvent, bool) {
	if s == nil {
		return BusEvent{}, false
	}
	for {
		s.mu.Lock()
		if ev, ok := s.buf.pop(); ok {
			s.mu.Unlock()
			return ev, true
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return BusEvent{}, false
		}
		select {
		case <-s.notify:
		case <-done:
			return BusEvent{}, false
		}
	}
}

// TryNext returns a buffered event without blocking; false when the
// buffer is empty.
func (s *Subscriber) TryNext() (BusEvent, bool) {
	if s == nil {
		return BusEvent{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.pop()
}

// Dropped returns how many events this subscriber's buffer overwrote.
func (s *Subscriber) Dropped() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.dropped
}

// Gap returns how many events between the requested resume point and
// the oldest replayable event were unrecoverable at subscribe time.
func (s *Subscriber) Gap() uint64 {
	if s == nil {
		return 0
	}
	return s.gap
}

// Close detaches the subscriber from the bus and wakes any blocked
// Next.
func (s *Subscriber) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.bus.unsubscribe(s)
	select {
	case s.notify <- struct{}{}:
	default:
	}
}
