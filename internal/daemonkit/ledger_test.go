package daemonkit

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"github.com/tieredmem/mtat/internal/journal"
)

// item is the smallest ledger entry: an ID and a finished flag.
type item struct {
	ID   string `json:"id"`
	Done bool   `json:"done"`
}

type itemSnapshot struct {
	NextID   int      `json:"next_id"`
	Items    []item   `json:"items"`
	Finished []string `json:"finished"`
}

// testLedger builds a ledger of *item with prefix "x", recording
// evictions and log lines.
func testLedger(max, compactEvery int, evicted, logged *[]string) *Ledger[*item] {
	var l *Ledger[*item]
	l = NewLedger(LedgerConfig[*item]{
		Component:    "test",
		Kind:         "item",
		Prefix:       "x",
		Max:          max,
		CompactEvery: compactEvery,
		Terminal:     func(it *item) bool { return it.Done },
		Snapshot: func(nextID int, finished []string) any {
			snap := itemSnapshot{NextID: nextID, Finished: finished}
			l.Each(func(it *item) { snap.Items = append(snap.Items, *it) })
			return snap
		},
		Evicted: func(id string) { *evicted = append(*evicted, id) },
		Logf: func(format string, args ...any) {
			*logged = append(*logged, format)
		},
	})
	return l
}

// replayItems is the domain half of replay for the test ledger.
func replayItems(l *Ledger[*item]) func(journal.Record) error {
	return func(rec journal.Record) error {
		switch rec.Type {
		case SnapshotType:
			var snap itemSnapshot
			if err := rec.Decode(&snap); err != nil {
				return err
			}
			l.Reset(snap.NextID, snap.Finished)
			for i := range snap.Items {
				it := snap.Items[i]
				l.Add(it.ID, &it)
			}
		case "item.submitted":
			var it item
			if err := rec.Decode(&it); err != nil {
				return err
			}
			l.Add(it.ID, &it)
		case "item.finished":
			var it item
			if err := rec.Decode(&it); err != nil {
				return err
			}
			if e, ok := l.Get(it.ID); ok {
				e.Done = true
				l.NoteFinished(it.ID)
			}
		}
		return nil
	}
}

func ids(l *Ledger[*item]) []string {
	var out []string
	l.Each(func(it *item) { out = append(out, it.ID) })
	return out
}

func submit(t *testing.T, l *Ledger[*item]) *item {
	t.Helper()
	it := &item{ID: l.NewID()}
	if err := l.Submit(context.Background(), it.ID, it, "item.submitted", *it); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return it
}

func finish(l *Ledger[*item], it *item) {
	it.Done = true
	l.Finish(it.ID, "item.finished", *it)
}

// TestLedgerIDsAndRollback: IDs are the prefix plus six digits, and a
// failed submission append is an error that gives its ID back.
func TestLedgerIDsAndRollback(t *testing.T) {
	var evicted, logged []string
	l := testLedger(4, 100, &evicted, &logged)
	if _, err := l.Open(t.TempDir(), journal.Options{}, replayItems(l)); err != nil {
		t.Fatal(err)
	}
	if it := submit(t, l); it.ID != "x000001" {
		t.Fatalf("first ID = %s, want x000001", it.ID)
	}
	l.jn.Close() // every later append fails
	id := l.NewID()
	err := l.Submit(context.Background(), id, &item{ID: id}, "item.submitted", item{ID: id})
	if err == nil || !strings.HasPrefix(err.Error(), "test: journal submission: ") {
		t.Fatalf("Submit on a closed journal: %v", err)
	}
	if _, ok := l.Get(id); ok || l.Len() != 1 {
		t.Fatalf("failed submission registered (len %d)", l.Len())
	}
	if next := l.NewID(); next != id {
		t.Fatalf("ID after rollback = %s, want %s reused", next, id)
	}
	// A failed transition append is a log line, not an error.
	l.Journal("item.started", item{ID: "x000001"})
	if len(logged) != 1 || !strings.Contains(logged[0], "journal append") {
		t.Fatalf("logged %q, want one append failure", logged)
	}
}

// TestLedgerEvictsInFinishOrder: submission order is kept, finish order
// drives eviction, and the hook sees each evicted ID once.
func TestLedgerEvictsInFinishOrder(t *testing.T) {
	var evicted, logged []string
	l := testLedger(2, 100, &evicted, &logged)
	a, b, c, d := submit(t, l), submit(t, l), submit(t, l), submit(t, l)
	finish(l, c)
	finish(l, a)
	finish(l, d)
	if want := []string{"x000003"}; !reflect.DeepEqual(evicted, want) {
		t.Fatalf("evicted %v, want %v", evicted, want)
	}
	if got, want := ids(l), []string{a.ID, b.ID, d.ID}; !reflect.DeepEqual(got, want) {
		t.Fatalf("entries %v, want %v", got, want)
	}
	if l.Retained() != 2 || l.Len() != 3 {
		t.Fatalf("retained %d of %d, want 2 of 3", l.Retained(), l.Len())
	}
}

// TestLedgerCompactsAfterEviction: the snapshot a finish triggers holds
// that finish, so a restart with the same cap converges to the same
// retained set and keeps evicting.
func TestLedgerCompactsAfterEviction(t *testing.T) {
	dir := t.TempDir()
	var evicted, logged []string
	l := testLedger(1, 3, &evicted, &logged)
	if _, err := l.Open(dir, journal.Options{}, replayItems(l)); err != nil {
		t.Fatal(err)
	}
	a := submit(t, l)
	b := submit(t, l)
	finish(l, a) // third record: compacts
	l.Close()

	var evicted2 []string
	l2 := testLedger(1, 100, &evicted2, &logged)
	if _, err := l2.Open(dir, journal.Options{}, replayItems(l2)); err != nil {
		t.Fatal(err)
	}
	if got := ids(l2); !reflect.DeepEqual(got, []string{a.ID, b.ID}) || l2.Retained() != 1 {
		t.Fatalf("replayed %v (retained %d), want [%s %s] with 1 retained", got, l2.Retained(), a.ID, b.ID)
	}
	b2, _ := l2.Get(b.ID)
	finish(l2, b2)
	if !reflect.DeepEqual(evicted2, []string{a.ID}) {
		t.Fatalf("evicted after restart %v, want [%s]", evicted2, a.ID)
	}
	if next := l2.NewID(); next != "x000003" {
		t.Fatalf("next ID after replay = %s, want x000003", next)
	}
	l2.Close()
}

// TestLedgerReplayRebuildsFinishOrder: after replay the finish order
// keeps the first occurrence of each ID that still resolves to a
// terminal entry, gains terminal entries it lacked, and a smaller cap
// evicts through the hook.
func TestLedgerReplayRebuildsFinishOrder(t *testing.T) {
	dir := t.TempDir()
	j, _, err := journal.Open(dir, journal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		typ string
		v   any
	}{
		{SnapshotType, itemSnapshot{
			NextID:   9,
			Items:    []item{{ID: "x000002", Done: true}, {ID: "x000003", Done: true}, {ID: "x000005"}},
			Finished: []string{"x000001", "x000002"}, // x000001 no longer resolves, x000003 missing
		}},
		{"item.submitted", item{ID: "x000007"}},
		{"item.finished", item{ID: "x000007"}},
		{"item.finished", item{ID: "x000002"}}, // duplicate finish
	} {
		if err := j.Append(r.typ, r.v); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var evicted, logged []string
	l := testLedger(2, 100, &evicted, &logged)
	stats, err := l.Open(dir, journal.Options{}, replayItems(l))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if stats.Records != 4 {
		t.Fatalf("replayed %d records, want 4", stats.Records)
	}
	// Finish order x000002, x000007, x000003: the cap of 2 evicts the
	// oldest.
	if !reflect.DeepEqual(evicted, []string{"x000002"}) {
		t.Fatalf("evicted %v, want [x000002]", evicted)
	}
	if got, want := ids(l), []string{"x000003", "x000005", "x000007"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("entries %v, want %v", got, want)
	}
	if l.Retained() != 2 {
		t.Fatalf("retained %d, want 2", l.Retained())
	}
	if next := l.NewID(); next != "x000010" {
		t.Fatalf("next ID = %s, want x000010 (above the snapshot's counter)", next)
	}
}
