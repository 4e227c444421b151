package daemonkit

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"github.com/tieredmem/mtat/internal/journal"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// SnapshotType is the record type of a compaction snapshot in either
// daemon's journal; replay is the last snapshot plus the deltas after it.
const SnapshotType = "snapshot"

// Ledger is the journaled registry behind mtatd's runs and mtatfleet's
// sweeps (DESIGN.md §10). It owns IDs (Prefix + six digits), retention
// (submission order, finish order driving eviction past Max), replay
// bookkeeping, and journal policy: a failed submission append is an
// error, a failed transition append a log line, and compaction runs only
// after a finish is recorded and evicted. The daemons keep their record
// structs, how a record folds into an entry, and the snapshot shape.
// A Ledger is not safe for concurrent use; each daemon calls it under
// its own registry mutex.
type Ledger[E any] struct {
	cfg      LedgerConfig[E]
	jn       *journal.Journal // nil without a data dir, and after Close
	entries  map[string]E
	order    []string // submission order
	finished []string // finish order: the eviction order
	nextID   int
}

// LedgerConfig describes one daemon's registry.
type LedgerConfig[E any] struct {
	Component string // log and error prefix ("server", "cluster")
	Kind      string // span attribute naming an entry ("run", "sweep")
	Prefix    string // ID prefix ("r", "s")
	// Max caps retained finished entries; CompactEvery is the journal
	// record count that triggers a snapshot.
	Max, CompactEvery int
	// Terminal reports whether an entry has finished.
	Terminal func(E) bool
	// Snapshot builds the compaction record from the ID counter and the
	// finish order; it reads the entries through Each.
	Snapshot func(nextID int, finished []string) any
	// Evicted runs once per evicted entry, after it left the ledger.
	Evicted func(id string)
	// Telemetry records a journal.append span for submissions whose
	// context carries a span context. Nil records none.
	Telemetry *telemetry.Telemetry
	Logf      func(format string, args ...any)
}

// NewLedger returns an empty ledger; Open attaches a journal.
func NewLedger[E any](cfg LedgerConfig[E]) *Ledger[E] {
	return &Ledger[E]{cfg: cfg, entries: make(map[string]E)}
}

// Open opens the journal in dir and replays it through apply, which
// folds each record into the ledger with Reset, Add, NoteID, Get and
// NoteFinished. After replay the finish order holds exactly the terminal
// entries — the replayed order first, then any terminal entry it lacked
// in submission order — and the cap applies again (it may have shrunk
// across the restart).
func (l *Ledger[E]) Open(dir string, opts journal.Options, apply func(journal.Record) error) (journal.ReplayStats, error) {
	jn, stats, err := journal.Open(dir, opts, apply)
	if err != nil {
		return stats, fmt.Errorf("%s: open data dir: %w", l.cfg.Component, err)
	}
	l.jn = jn
	seen := make(map[string]bool, len(l.finished))
	var finished []string
	for _, id := range append(l.finished, l.order...) {
		if e, ok := l.entries[id]; ok && !seen[id] && l.cfg.Terminal(e) {
			seen[id] = true
			finished = append(finished, id)
		}
	}
	l.finished = finished
	l.evict()
	return stats, nil
}

// Reset applies a snapshot during replay: entries and finish order are
// replaced and the counter rises to nextID. The snapshot's entries
// follow through Add.
func (l *Ledger[E]) Reset(nextID int, finished []string) {
	l.entries = make(map[string]E, len(l.entries))
	l.order = l.order[:0]
	l.finished = append(l.finished[:0], finished...)
	l.nextID = max(l.nextID, nextID)
}

// Add registers a replayed entry in submission order; a duplicate ID
// keeps the first entry.
func (l *Ledger[E]) Add(id string, e E) {
	l.NoteID(id)
	if _, ok := l.entries[id]; !ok {
		l.entries[id] = e
		l.order = append(l.order, id)
	}
}

// NoteID keeps the counter above a replayed ID, so recovered and new
// entries never collide; a daemon calls it for a journaled entry it drops.
func (l *Ledger[E]) NoteID(id string) {
	if n, err := strconv.Atoi(strings.TrimPrefix(id, l.cfg.Prefix)); err == nil {
		l.nextID = max(l.nextID, n)
	}
}

// NoteFinished appends a replayed terminal transition to the finish order.
func (l *Ledger[E]) NoteFinished(id string) { l.finished = append(l.finished, id) }

// NewID allocates the next ID. Pair each NewID with one Submit under the
// same lock: a failed Submit gives the ID back.
func (l *Ledger[E]) NewID() string {
	l.nextID++
	return fmt.Sprintf("%s%06d", l.cfg.Prefix, l.nextID)
}

// Submit journals an accepted submission, the durable promise behind id,
// and registers e under it. A failed append gives the ID back and
// returns the error; e is not registered.
func (l *Ledger[E]) Submit(ctx context.Context, id string, e E, typ string, rec any) error {
	if l.jn != nil {
		var span *telemetry.ActiveSpan
		if telemetry.SpanContextFrom(ctx).Valid() {
			_, span = l.cfg.Telemetry.Spans().StartSpan(ctx, "journal.append",
				telemetry.SA(l.cfg.Kind, id), telemetry.SA("rec", typ))
		}
		err := l.jn.Append(typ, rec)
		span.End(err)
		if err != nil {
			l.nextID--
			return fmt.Errorf("%s: journal submission: %w", l.cfg.Component, err)
		}
	}
	l.entries[id] = e
	l.order = append(l.order, id)
	return nil
}

// Journal appends a transition record. A failure is a log line: an
// unjournaled transition costs a re-execution after a crash, not
// correctness.
func (l *Ledger[E]) Journal(typ string, rec any) {
	if l.jn == nil {
		return
	}
	if err := l.jn.Append(typ, rec); err != nil {
		l.cfg.Logf("%s: journal append %s failed: %v", l.cfg.Component, typ, err)
	}
}

// Finish journals rec, appends id to the finish order, evicts past the
// cap, and only then compacts when due, so a snapshot never holds a
// terminal entry missing from its finish order.
func (l *Ledger[E]) Finish(id, typ string, rec any) {
	l.Journal(typ, rec)
	l.finished = append(l.finished, id)
	l.evict()
	if l.jn == nil || l.jn.Records() < int64(l.cfg.CompactEvery) {
		return
	}
	if err := l.jn.Compact(SnapshotType, l.cfg.Snapshot(l.nextID, l.finished)); err != nil {
		l.cfg.Logf("%s: journal compaction failed: %v", l.cfg.Component, err)
	}
}

// evict drops the oldest finished entries beyond the cap.
func (l *Ledger[E]) evict() {
	for len(l.finished) > l.cfg.Max {
		id := l.finished[0]
		l.finished = l.finished[1:]
		delete(l.entries, id)
		for i, oid := range l.order {
			if oid == id {
				l.order = append(l.order[:i], l.order[i+1:]...)
				break
			}
		}
		l.cfg.Evicted(id)
	}
}

// Close closes the journal, logging a failure; later appends are no-ops.
func (l *Ledger[E]) Close() {
	if l.jn != nil {
		if err := l.jn.Close(); err != nil {
			l.cfg.Logf("%s: journal close: %v", l.cfg.Component, err)
		}
		l.jn = nil
	}
}

// Get returns the entry with the given ID.
func (l *Ledger[E]) Get(id string) (E, bool) {
	e, ok := l.entries[id]
	return e, ok
}

// Each calls fn on every entry in submission order.
func (l *Ledger[E]) Each(fn func(E)) {
	for _, id := range l.order {
		fn(l.entries[id])
	}
}

// Len returns the number of entries, finished or not.
func (l *Ledger[E]) Len() int { return len(l.entries) }

// Retained returns the number of finished entries kept.
func (l *Ledger[E]) Retained() int { return len(l.finished) }

// TraceOrEmpty renders a trace ID for a record or a status, "" when
// unset.
func TraceOrEmpty(id telemetry.TraceID) string {
	if id.IsZero() {
		return ""
	}
	return id.String()
}
