package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tieredmem/mtat/internal/journal"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// seedFleetJournal writes raw lifecycle records into dir — the journal
// a crashed mtatfleet leaves behind.
func seedFleetJournal(t *testing.T, dir string, write func(j *journal.Journal)) {
	t.Helper()
	j, _, err := journal.Open(dir, journal.Options{}, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	write(j)
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestFleetRecoveryResumesUnfinishedCells is the fleet-side crash
// contract: a journal holding an accepted sweep with half its cells
// settled must yield a fleet that re-dispatches only the other half,
// keeps the journaled summaries for the settled ones, and converges to
// a complete sweep.
func TestFleetRecoveryResumesUnfinishedCells(t *testing.T) {
	dir := t.TempDir()
	spec := sweep12()
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	const settled = 6
	seedFleetJournal(t, dir, func(j *journal.Journal) {
		if err := j.Append(recSweepSubmitted, sweepSubmittedRec{
			ID: "s000001", Name: spec.Name, Spec: spec, SubmittedAt: time.Now(),
		}); err != nil {
			t.Fatal(err)
		}
		for _, c := range cells[:settled] {
			s := CellSummary{
				Sweep: spec.Name, Index: c.Index, Label: c.Label,
				State: CellDone, Node: "node-ghost", Attempts: 1,
				Policy: c.Spec.PolicyName(), Seed: c.Spec.Seed, Ticks: 500,
			}
			if err := j.Append(recCellSettled, cellSettledRec{
				SweepID: "s000001", Index: c.Index, Summary: s,
			}); err != nil {
				t.Fatal(err)
			}
		}
	})

	tel := telemetry.New()
	n1 := newTestNode(t, 2)
	f := newTestFleetCfg(t, FleetConfig{Telemetry: tel, DataDir: dir}, n1)

	st := f.Stats()
	if st.RecoveredSweeps != 1 || st.RecoveredCells != len(cells)-settled {
		t.Fatalf("stats = %+v, want 1 recovered sweep, %d recovered cells", st, len(cells)-settled)
	}
	// Before Resume the sweep is visible but idle: settled cells done,
	// the rest pending.
	pre, err := f.Get("s000001")
	if err != nil {
		t.Fatal(err)
	}
	if pre.Done != settled || pre.Pending != len(cells)-settled {
		t.Fatalf("pre-resume status = %+v", pre)
	}

	resumed := f.Resume()
	if len(resumed) != 1 || resumed[0].ID != "s000001" {
		t.Fatalf("Resume() = %+v", resumed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	final, err := f.Wait(ctx, "s000001")
	if err != nil {
		t.Fatal(err)
	}
	if final.State != SweepDone || final.Done != len(cells) || final.Failed != 0 {
		t.Fatalf("final = %+v", final)
	}

	sums, err := f.Results("s000001")
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != len(cells) {
		t.Fatalf("got %d summaries, want %d", len(sums), len(cells))
	}
	ghosts := 0
	for _, s := range sums {
		if s.State != CellDone {
			t.Errorf("cell %d = %s (%s)", s.Index, s.State, s.Error)
		}
		if s.Node == "node-ghost" {
			ghosts++
		}
	}
	// The settled cells kept the previous incarnation's summaries — they
	// were not re-dispatched.
	if ghosts != settled {
		t.Errorf("%d cells carry the pre-crash node, want %d", ghosts, settled)
	}

	// ID continuity: the next submission must not collide.
	st2, err := f.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != "s000002" {
		t.Errorf("post-recovery sweep ID = %s, want s000002", st2.ID)
	}
	if _, err := f.Cancel(st2.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, f, st2.ID)

	ctxSD, cancelSD := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancelSD()
	if err := f.Shutdown(ctxSD); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Third incarnation: everything is terminal, nothing resumes, and the
	// completed sweep's results survive.
	f2 := newTestFleetCfg(t, FleetConfig{DataDir: dir})
	if st := f2.Stats(); st.RecoveredSweeps != 0 || st.RecoveredCells != 0 {
		t.Fatalf("second recovery stats = %+v, want no recovered work", st)
	}
	got, err := f2.Get("s000001")
	if err != nil {
		t.Fatal(err)
	}
	if got.State != SweepDone || got.Done != len(cells) {
		t.Fatalf("post-restart sweep = %+v", got)
	}
	sums2, err := f2.Results("s000001")
	if err != nil || len(sums2) != len(cells) {
		t.Fatalf("post-restart results: %v (%d summaries)", err, len(sums2))
	}
}

// TestFleetRecoveryCancelledSweepStaysCancelled: a sweep cancelled
// before the crash is terminal and must not resume.
func TestFleetRecoveryCancelledSweepStaysCancelled(t *testing.T) {
	dir := t.TempDir()
	spec := sweep12()
	seedFleetJournal(t, dir, func(j *journal.Journal) {
		if err := j.Append(recSweepSubmitted, sweepSubmittedRec{
			ID: "s000001", Name: spec.Name, Spec: spec, SubmittedAt: time.Now(),
		}); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(recSweepFinished, sweepFinishedRec{
			ID: "s000001", State: SweepCancelled, FinishedAt: time.Now(),
		}); err != nil {
			t.Fatal(err)
		}
	})
	f := newTestFleetCfg(t, FleetConfig{DataDir: dir})
	if st := f.Stats(); st.RecoveredSweeps != 0 {
		t.Fatalf("stats = %+v, want no recovered sweeps", st)
	}
	if resumed := f.Resume(); len(resumed) != 0 {
		t.Fatalf("Resume() = %+v, want none", resumed)
	}
	got, err := f.Get("s000001")
	if err != nil || got.State != SweepCancelled {
		t.Fatalf("sweep = %+v (%v), want cancelled", got, err)
	}
}

// TestFleetCompactionRoundTrip: aggressive compaction must not change
// what a restart recovers.
func TestFleetCompactionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	n1 := newTestNode(t, 2)
	f := newTestFleetCfg(t, FleetConfig{DataDir: dir, CompactEvery: 3}, n1)
	st, err := f.Submit(sweep12())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	final, err := f.Wait(ctx, st.ID)
	if err != nil || final.State != SweepDone {
		t.Fatalf("sweep: %v %+v", err, final)
	}
	ctxSD, cancelSD := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancelSD()
	if err := f.Shutdown(ctxSD); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	f2 := newTestFleetCfg(t, FleetConfig{DataDir: dir})
	got, err := f2.Get(st.ID)
	if err != nil || got.State != SweepDone || got.Done != 12 {
		t.Fatalf("post-compaction recovery = %+v (%v)", got, err)
	}
	sums, err := f2.Results(st.ID)
	if err != nil || len(sums) != 12 {
		t.Fatalf("post-compaction results: %v (%d summaries)", err, len(sums))
	}
}

func waitTerminal(t *testing.T, f *Fleet, id string) SweepStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := f.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	return st
}

// TestFleetCompactionKeepsFinishOrder: a compaction that a sweep's
// finish triggers must snapshot that sweep in the finish order too, or
// a restarted fleet never evicts it.
func TestFleetCompactionKeepsFinishOrder(t *testing.T) {
	dir := t.TempDir()
	n1 := newTestNode(t, 2)
	f := newTestFleetCfg(t, FleetConfig{DataDir: dir, CompactEvery: 3, MaxSweeps: 1}, n1)
	first, err := f.Submit(sweep12())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, f, first.ID); st.State != SweepDone {
		t.Fatalf("first sweep = %+v", st)
	}
	ctxSD, cancelSD := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancelSD()
	if err := f.Shutdown(ctxSD); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	n2 := newTestNode(t, 2)
	f2 := newTestFleetCfg(t, FleetConfig{DataDir: dir, MaxSweeps: 1}, n2)
	f2.Resume()
	second, err := f2.Submit(sweep12())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, f2, second.ID); st.State != SweepDone {
		t.Fatalf("second sweep = %+v", st)
	}
	if _, err := f2.Get(first.ID); !errors.Is(err, ErrSweepNotFound) {
		t.Fatalf("Get(%s) after the second sweep: %v, want ErrSweepNotFound", first.ID, err)
	}
	if got := f2.Stats().Sweeps; got != 1 {
		t.Fatalf("retained %d sweeps, want 1", got)
	}
}

// TestFleetEvictionAccounted is the fleet twin of mtatd's
// TestEvictionAccounted: every sweep evicted past MaxSweeps bumps
// fleet_sweeps_evicted_total and logs its ID, so retained + evicted
// reconciles against submitted.
func TestFleetEvictionAccounted(t *testing.T) {
	tel := telemetry.New()
	n1 := newTestNode(t, 2)
	var mu sync.Mutex
	var logged []string
	f := newTestFleetCfg(t, FleetConfig{
		Telemetry: tel, MaxSweeps: 2,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logged = append(logged, fmt.Sprintf(format, args...))
		},
	}, n1)
	spec := sweep12()
	spec.Policies, spec.SLOScales, spec.Seeds = []string{"memtis"}, []float64{1}, []int64{1}
	const total = 4
	var idList []string
	for i := 0; i < total; i++ {
		st, err := f.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		idList = append(idList, st.ID)
		waitTerminal(t, f, st.ID)
	}
	evicted := tel.Metrics().Counter(telemetry.MetricFleetSweepsEvicted).Value()
	if evicted != total-2 {
		t.Fatalf("evicted counter = %d, want %d", evicted, total-2)
	}
	retained := f.List()
	if int(evicted)+len(retained) != total {
		t.Fatalf("retained %d + evicted %d != submitted %d", len(retained), evicted, total)
	}
	if retained[0].ID != idList[total-2] || retained[1].ID != idList[total-1] {
		t.Fatalf("retained %s,%s want %s,%s", retained[0].ID, retained[1].ID, idList[total-2], idList[total-1])
	}
	mu.Lock()
	defer mu.Unlock()
	for _, id := range idList[:total-2] {
		found := false
		for _, l := range logged {
			if strings.Contains(l, "evicted oldest finished sweep "+id) {
				found = true
			}
		}
		if !found {
			t.Errorf("no eviction log line for %s (got %q)", id, logged)
		}
	}
}
