package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/tieredmem/mtat/internal/server"
	"github.com/tieredmem/mtat/internal/sim"
	"github.com/tieredmem/mtat/internal/telemetry"
)

const (
	// serviceTicks is each submitted run's length: 1 s of simulated time
	// at the default 0.1 s tick.
	serviceTicks = 10
	// finishTimeout bounds a client's wait for its run's terminal state;
	// a run that takes longer is scored from a status read instead.
	finishTimeout = 10 * time.Second
	// serviceSetupReps is how many daemons are started to time set-up;
	// the last one serves the load.
	serviceSetupReps = 9
	// serviceWarmup is how long the load runs before it is measured:
	// long enough for the daemon to fill its 256-run result store and
	// grow its heap to steady state (about 1.7 GB), whose first-touch
	// page faults otherwise land in the measured window.
	serviceWarmup = 5 * time.Second
	// doneBacklog bounds how far the status reader may fall behind the
	// stream before the stream waits for it.
	doneBacklog = 1 << 16
)

type serviceConfig struct {
	mtatd   string
	seed    int64
	seconds float64
	trace   bool
}

// serviceSpec is submission i: a 10-tick scale-16 memtis run at constant
// half load, seeded from the benchmark seed.
func serviceSpec(seed int64, i int) sim.RunSpec {
	return sim.RunSpec{
		LC: "redis", BEs: []string{"sssp", "pr"}, Policy: "memtis", Scale: 16,
		Load: &sim.LoadSpec{Kind: "constant", Frac: 0.5, DurationSeconds: 1},
		Seed: seed*100_000 + int64(i),
	}
}

// runService drives mtatd with closed-loop clients that each submit a
// run, wait for its terminal state on the firehose and submit the next,
// while every finished run's status is read once beside them.
//
// The loop is closed and keeps the daemon's workers busy because a VM
// whose CPUs idle between short runs hands them to its neighbours and
// waits to get them back: the host's steal time, and with it the latency
// of each ~6 ms run, then moves with the neighbours' load. Kept busy, the
// CPUs see little steal, and the latency is the clients over the
// throughput, a time average over the window. Latency and throughput
// are medians over one-second slices of the window.
func runService(ctx context.Context, cfg serviceConfig) (outcome, error) {
	out := outcome{values: map[string]float64{}, correct: true}
	base, err := os.MkdirTemp("", "perfbench-service-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(base)

	// Set-up: exec → /readyz on an empty journal, median of several
	// starts. Every daemon is stopped before the next starts.
	var setups []float64
	var d *daemon
	for i := 0; i < serviceSetupReps; i++ {
		dd, setup, err := startDaemon(ctx, cfg.mtatd, filepath.Join(base, fmt.Sprintf("data%d", i)))
		if err != nil {
			return out, fmt.Errorf("start mtatd: %w", err)
		}
		setups = append(setups, setup.Seconds())
		if i < serviceSetupReps-1 {
			dd.stop()
		} else {
			d = dd
		}
	}
	defer d.stop()

	// Two clients per mtatd worker (the daemon runs one per CPU): one
	// run executing and one queued behind it, so a worker never idles
	// while a client turns around. Each client has a connection, and the
	// status reads one more.
	clients := 2 * runtime.NumCPU()
	client := &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients + 1,
			MaxIdleConnsPerHost: clients + 1,
		},
	}
	fh, err := openFirehose(ctx, d.url("/api/v1/events?heartbeat=1s"), doneBacklog)
	if err != nil {
		return out, fmt.Errorf("subscribe to the firehose: %w", err)
	}
	// One status read per finished run, beside the submits.
	reads := statusReader{client: client, url: d.url("/api/v1/runs/")}
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for id := range fh.done {
			reads.read(ctx, id)
		}
	}()
	stopStream := sync.OnceFunc(func() {
		fh.close()
		readers.Wait()
	})
	defer stopStream()

	// The loop runs unmeasured for serviceWarmup first, so the daemon's
	// heap, GC pacing and connections are in steady state when the
	// measured window starts. The daemon's CPU time (and, traced, its
	// metrics) are read as the window opens.
	loopStart := time.Now()
	start := loopStart.Add(serviceWarmup)
	window := serviceWarmup + time.Duration(cfg.seconds*float64(time.Second))
	var (
		cpu0   float64
		before telemetry.Snapshot
	)
	marked := make(chan error, 1)
	go func() {
		t := time.NewTimer(time.Until(start))
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			marked <- ctx.Err()
			return
		}
		var err error
		if cpu0, err = d.cpuSeconds(); err == nil && cfg.trace {
			before, err = scrape(ctx, client, d.url("/metrics"))
		}
		marked <- err
	}()
	all := closedLoop(ctx, client, d.url("/api/v1/runs"), loopStart, window, clients,
		func(i int) []byte {
			b, _ := json.Marshal(serviceSpec(cfg.seed, i)) // a RunSpec always marshals
			return b
		},
		func(ctx context.Context, id string) { fh.wait(ctx, id, finishTimeout) })
	if err := <-marked; err != nil {
		return out, err
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	end := time.Now()
	stopStream()

	cpu1, err := d.cpuSeconds()
	if err != nil {
		return out, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return out, err
	}
	var after telemetry.Snapshot
	if cfg.trace {
		if after, err = scrape(ctx, client, d.url("/metrics")); err != nil {
			return out, err
		}
	}

	// Score every submission sent in the measured window; earlier ones
	// are only checked. A failure counts as missing every latency limit:
	// its latencies are the whole time it was waited for.
	var ack, done, first, queueWait, execute, p99s, violations, fairness []float64
	slices := newWindowSlices(start, cfg.seconds)
	missedTerminal := 0
	for i, s := range all {
		measured := !s.sent.Before(start)
		if measured {
			out.attempted++
		}
		failedAt := ms(end.Sub(s.sent))
		if s.code != http.StatusAccepted {
			if s.code != http.StatusTooManyRequests {
				out.correct = false
				notef("submit %d: HTTP %d: %v", i, s.code, s.err)
			}
			if measured {
				out.failed++
				ack, done, first = append(ack, failedAt), append(done, failedAt), append(first, failedAt)
				slices.add(s.sent, failedAt, false)
			}
			continue
		}
		seen, _ := fh.seen(s.id)
		st := seen.status
		if seen.terminal.IsZero() {
			// The stream never delivered the terminal state: fall back
			// to a status read so the run's outcome is still checked.
			if measured {
				missedTerminal++
			}
			if st, err = getStatus(ctx, client, d.url("/api/v1/runs/"+s.id)); err != nil {
				notef("run %s: no terminal event and status read failed: %v", s.id, err)
			}
		}
		ok := st.State == server.StateDone && st.Result != nil && st.Result.Ticks == serviceTicks
		if !ok {
			out.correct = false
			notef("run %s ended %q (error %q), want done with %d ticks", s.id, st.State, st.Error, serviceTicks)
		}
		if !measured {
			continue
		}
		ack = append(ack, ms(s.acked.Sub(s.sent)))
		if seen.first.IsZero() {
			first = append(first, failedAt)
		} else {
			first = append(first, ms(seen.first.Sub(s.sent)))
		}
		lat := failedAt
		if ok && !seen.terminal.IsZero() {
			lat = ms(seen.terminal.Sub(s.sent))
		}
		done = append(done, lat)
		slices.add(s.sent, lat, ok)
		if !ok {
			out.failed++
			continue
		}
		if st.StartedAt != nil && st.FinishedAt != nil {
			queueWait = append(queueWait, ms(st.StartedAt.Sub(st.SubmittedAt)))
			execute = append(execute, ms(st.FinishedAt.Sub(*st.StartedAt)))
		}
		p99s = append(p99s, 1e3*st.Result.LCMeanP99)
		violations = append(violations, st.Result.LCViolationRate)
		fairness = append(fairness, st.Result.BEFairness)
	}
	if reads.bad > 0 {
		out.correct = false
		notef("%d status reads disagreed with the terminal event", reads.bad)
	}
	completed := len(done) - out.failed
	if completed == 0 {
		return out, fmt.Errorf("no run completed in the measured window")
	}

	v := out.values
	v["setup_s"] = median(setups)
	v["peak_rss_mb"] = rss
	cellMs, perSecond := slices.medians()
	v["cell_s"] = cellMs / 1e3
	v["cells_per_s"] = perSecond
	v["cpu_s_per_cell"] = (cpu1 - cpu0) / float64(completed)
	v["lc_mean_p99_ms"] = mean(p99s)
	v["be_fairness"] = mean(fairness)
	v["lc_violation_rate"] = mean(violations)

	v["submit_ack_p50_ms"] = median(ack)
	v["submit_ack_p99_ms"] = tail(ack, 0.99, "submit_ack_p99_ms")
	v["run_done_p50_ms"] = median(done)
	v["run_done_p90_ms"] = tail(done, 0.90, "run_done_p90_ms")
	v["run_done_p99_ms"] = tail(done, 0.99, "run_done_p99_ms")
	v["first_event_p50_ms"] = median(first)
	v["status_read_p50_ms"] = median(reads.latencies)
	v["fail_ratio"] = float64(out.failed) / float64(out.attempted)
	v["sse.gaps"] = float64(fh.gaps)
	v["sse.missed_terminal"] = float64(missedTerminal)
	v["server.queue_wait_ms_p50"] = median(queueWait)
	v["server.execute_ms_p50"] = median(execute)
	if cfg.trace {
		v["tenant.queue_wait_ms_mean"] = 1e3 * histDeltaMean(before, after, telemetry.MetricTenantQueueWait)
		v["http.post_runs_ms_mean"] = 1e3 * histDeltaMean(before, after,
			telemetry.SeriesName(telemetry.MetricHTTPDuration, "route", "POST /api/v1/runs"))
		v["http.get_run_ms_mean"] = 1e3 * histDeltaMean(before, after,
			telemetry.SeriesName(telemetry.MetricHTTPDuration, "route", "GET /api/v1/runs/{id}"))
		v["journal.append_ms_mean"] = 1e3 * histDeltaMean(before, after, telemetry.MetricJournalAppendTime)
		v["journal.appends"] = counterDelta(before, after, telemetry.MetricJournalAppends)
		v["telemetry.bus_events"] = counterDelta(before, after, telemetry.MetricBusPublished)
		v["telemetry.bus_dropped"] = counterDelta(before, after, telemetry.MetricBusDropped)
	}
	return out, nil
}

// windowSlices splits the measured window into one-second slices by send
// time. Host steal time comes in bursts of a few seconds; the median over
// slices keeps a burst that covers less than half the window out of the
// figures, where a mean over the whole window would take it in.
type windowSlices struct {
	start time.Time
	width time.Duration
	sumMs []float64 // submit → done latencies
	runs  []int     // submissions
	ok    []int     // runs that completed correctly
}

func newWindowSlices(start time.Time, seconds float64) *windowSlices {
	n := max(1, int(seconds))
	return &windowSlices{
		start: start,
		width: time.Duration(seconds*float64(time.Second)) / time.Duration(n),
		sumMs: make([]float64, n),
		runs:  make([]int, n),
		ok:    make([]int, n),
	}
}

func (w *windowSlices) add(sent time.Time, latencyMs float64, ok bool) {
	i := min(int(sent.Sub(w.start)/w.width), len(w.runs)-1)
	w.sumMs[i] += latencyMs
	w.runs[i]++
	if ok {
		w.ok[i]++
	}
}

// medians returns the median over slices of the mean submit → done
// latency and of the runs completed per second. With every client always
// waiting on a run, a slice's mean latency is the clients over its
// throughput.
func (w *windowSlices) medians() (latencyMs, perSecond float64) {
	var lat, rate []float64
	for i, n := range w.runs {
		if n > 0 {
			lat = append(lat, w.sumMs[i]/float64(n))
		}
		rate = append(rate, float64(w.ok[i])/w.width.Seconds())
	}
	return median(lat), median(rate)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tail is the q-quantile of xs, warning when too few samples lie beyond
// it for the figure to be more than an estimate.
func tail(xs []float64, q float64, name string) float64 {
	v, ok := percentile(xs, q)
	if !ok {
		hq, _, _ := highestTail(xs)
		fmt.Fprintf(os.Stderr, "perfbench: %s from %d samples has fewer than %d beyond it; p%g is the highest that has\n",
			name, len(xs), minTail, 100*hq)
	}
	return v
}

// statusReader reads each completed run's status once, the way a client
// polling for its result would, and checks it against the terminal event.
type statusReader struct {
	client    *http.Client
	url       string
	latencies []float64
	bad       int
}

func (r *statusReader) read(ctx context.Context, id string) {
	t := time.Now()
	st, err := getStatus(ctx, r.client, r.url+id)
	if err != nil {
		if ctx.Err() == nil {
			r.bad++
			fmt.Fprintf(os.Stderr, "perfbench: status read %s: %v\n", id, err)
		}
		return
	}
	r.latencies = append(r.latencies, ms(time.Since(t)))
	if !isTerminal(st.State) {
		r.bad++
		fmt.Fprintf(os.Stderr, "perfbench: status read %s: state %q after its terminal event\n", id, st.State)
	}
}

func getStatus(ctx context.Context, client *http.Client, url string) (server.RunStatus, error) {
	var st server.RunStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return st, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	err = json.Unmarshal(data, &st)
	return st, err
}

// scrape reads the daemon's JSON metrics snapshot.
func scrape(ctx context.Context, client *http.Client, url string) (telemetry.Snapshot, error) {
	var s telemetry.Snapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return s, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return s, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return s, fmt.Errorf("scrape /metrics: %w", err)
	}
	return s, nil
}

// histDeltaMean is the mean of the observations made between two scrapes
// across every histogram series whose name starts with prefix (so a
// family name covers all its label sets).
func histDeltaMean(before, after telemetry.Snapshot, prefix string) float64 {
	var sum, count float64
	for name, h := range after.Histograms {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		b := before.Histograms[name]
		count += float64(h.Count) - float64(b.Count)
		sum += float64(h.Count)*h.AllTimeMean - float64(b.Count)*b.AllTimeMean
	}
	return ratio(sum, count)
}

func counterDelta(before, after telemetry.Snapshot, name string) float64 {
	return float64(after.Counters[name] - before.Counters[name])
}
