package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/tieredmem/mtat/internal/backoff"
	"github.com/tieredmem/mtat/internal/cluster"
	"github.com/tieredmem/mtat/internal/daemonkit"
	"github.com/tieredmem/mtat/internal/flight"
	"github.com/tieredmem/mtat/internal/hypothesis"
	"github.com/tieredmem/mtat/internal/server"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// cmdWatch attaches to a daemon's live SSE event stream and renders it:
//
//	mtatctl watch run r000001              follow one run on mtatd
//	mtatctl watch sweep s000001            follow one sweep on mtatfleet
//	mtatctl watch experiment -f spec.json  follow an experiment's journal
//
// Connections auto-reconnect with Last-Event-ID, so a daemon restart or
// dropped proxy resumes from the retained event ring without gaps or
// duplicates (the same durability contract as `wait -durable`). -format
// jsonl emits one raw event JSON per line for piping instead of the
// human rendering.
func cmdWatch(ctx context.Context, c *server.Client, args []string) error {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("watch: usage: mtatctl watch run|sweep|experiment ...")
	}
	kind, args := args[0], args[1:]
	fs := flag.NewFlagSet("mtatctl watch "+kind, flag.ContinueOnError)
	var (
		format    = fs.String("format", "live", "output format: live (human) or jsonl (raw events)")
		maxOutage = fs.Duration("max-outage", server.DefaultMaxOutage,
			"tolerated daemon unreachability before failing")
		fleetAddr = fs.String("fleet", "", "mtatfleet address for sweep/experiment (also $MTATFLEET_ADDR)")
		specPath  = fs.String("f", "", `experiment spec JSON file ("-" for stdin; experiment only)`)
		stateDir  = fs.String("state", defaultStateDir(), "experiment journal root (experiment only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *format {
	case "live", "jsonl":
	default:
		return fmt.Errorf("watch: unknown format %q (valid: live, jsonl)", *format)
	}
	w := &watcher{
		out:       os.Stdout,
		jsonl:     *format == "jsonl",
		maxOutage: *maxOutage,
	}
	fleet := func() *cluster.Client {
		addr := *fleetAddr
		if addr == "" {
			addr = defaultFleetAddr()
		}
		fc := cluster.NewClient(addr)
		fc.Token = c.Token
		return fc
	}
	switch kind {
	case "run":
		if fs.NArg() != 1 {
			return fmt.Errorf("watch run: exactly one run ID required")
		}
		return w.watchRun(ctx, c, fs.Arg(0))
	case "sweep":
		if fs.NArg() != 1 {
			return fmt.Errorf("watch sweep: exactly one sweep ID required")
		}
		return w.watchSweep(ctx, fleet(), fs.Arg(0))
	case "experiment":
		if *specPath == "" {
			return fmt.Errorf("watch experiment: -f spec file required")
		}
		data, err := readSpecFile(*specPath)
		if err != nil {
			return err
		}
		spec, err := hypothesis.ParseExperimentSpec(data)
		if err != nil {
			return err
		}
		return w.watchExperiment(ctx, fleet(), spec, *stateDir)
	default:
		return fmt.Errorf("watch: unknown target %q (valid: run, sweep, experiment)", kind)
	}
}

// watcher renders one live stream. All output goes through note/status
// so jsonl mode stays machine-clean: raw event JSON on stdout,
// commentary on stderr.
type watcher struct {
	out       io.Writer
	jsonl     bool
	maxOutage time.Duration

	// lastEventID is the resume cursor: the id of the newest rendered
	// event, echoed back as Last-Event-ID on reconnect.
	lastEventID string
	// seen guards against duplicates across reconnect overlap; the
	// server replays strictly after the cursor, so any repeat is a bug
	// worth suppressing rather than rendering twice.
	seen map[uint64]bool
}

// note writes human commentary — stderr in jsonl mode, stdout otherwise.
func (w *watcher) note(format string, args ...any) {
	dst := w.out
	if w.jsonl {
		dst = os.Stderr
	}
	fmt.Fprintf(dst, format+"\n", args...)
}

// stream runs the reconnect loop: open, consume, and on stream loss
// reopen with the Last-Event-ID cursor until handle returns done or the
// outage budget is spent. A successfully received event resets the
// outage clock, mirroring WaitDurable's durability contract.
func (w *watcher) stream(ctx context.Context,
	open func(ctx context.Context, lastEventID string) (*telemetry.SSEStream, error),
	handle func(ev telemetry.BusEvent) (done bool, err error),
) error {
	if w.seen == nil {
		w.seen = make(map[uint64]bool)
	}
	pol := backoff.Policy{Base: 250 * time.Millisecond, Max: 5 * time.Second}
	var outageStart time.Time
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		st, err := open(ctx, w.lastEventID)
		if err == nil {
			done, herr := w.consume(ctx, st, handle)
			st.Close()
			if done || herr != nil {
				return herr
			}
			// Healthy stream that ended (daemon shutdown mid-run, proxy
			// reset): start a fresh outage window and reconnect.
			outageStart, attempt = time.Time{}, 0
			err = errors.New("stream closed")
		} else if definitiveErr(err) {
			// The daemon answered with a definitive client error
			// (unknown ID, bad auth): not an outage, retrying cannot
			// help.
			return err
		}
		if outageStart.IsZero() {
			outageStart = time.Now()
		}
		if down := time.Since(outageStart); down > w.maxOutage {
			return fmt.Errorf("watch: daemon unreachable for %s (last error: %v)",
				down.Round(time.Second), err)
		}
		w.note("# reconnecting (%v)", err)
		if serr := pol.Sleep(ctx, attempt); serr != nil {
			return serr
		}
	}
}

// definitiveErr reports whether the daemon answered with a client
// error that reconnecting cannot fix — 4xx except request-timeout and
// rate-limit backpressure, which behave like transient outages.
func definitiveErr(err error) bool {
	var apiErr *daemonkit.APIError
	if !errors.As(err, &apiErr) {
		return false
	}
	code := apiErr.StatusCode
	return code >= 400 && code < 500 &&
		code != http.StatusRequestTimeout && code != http.StatusTooManyRequests
}

// consume drains one SSE connection, dispatching events to handle.
// Returns done=true when handle saw a terminal event; a nil error with
// done=false means the connection dropped and the caller should
// reconnect.
func (w *watcher) consume(ctx context.Context, st *telemetry.SSEStream,
	handle func(ev telemetry.BusEvent) (done bool, err error),
) (bool, error) {
	for {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		frame, err := st.Next()
		if err != nil {
			return false, nil // io.EOF and transport errors both mean reconnect
		}
		switch frame.Event {
		case telemetry.EvStreamHello:
			continue
		case telemetry.EvStreamReset:
			// Daemon restarted: the bus epoch changed and the stream
			// replayed from the start of retention. Stats baselines
			// restart from the journal-recovered state.
			w.note("# daemon restarted; stream reset to retained history")
			continue
		case telemetry.EvStreamGap:
			var gap struct {
				Missed uint64 `json:"missed"`
			}
			_ = json.Unmarshal(frame.Data, &gap)
			w.note("# warning: %d event(s) aged out of the server ring before resume", gap.Missed)
			continue
		}
		var ev telemetry.BusEvent
		if err := json.Unmarshal(frame.Data, &ev); err != nil {
			continue
		}
		if ev.ID != 0 && w.seen[ev.ID] {
			continue
		}
		if frame.ID != "" {
			w.lastEventID = frame.ID
		}
		if ev.ID != 0 {
			w.seen[ev.ID] = true
		}
		if w.jsonl {
			fmt.Fprintf(w.out, "%s\n", frame.Data)
		}
		done, herr := handle(ev)
		if done || herr != nil {
			return true, herr
		}
	}
}

// decode re-marshals a bus event's payload into a concrete type (the
// payload arrives as generic JSON).
func decode[T any](data any) (T, bool) {
	var v T
	raw, err := json.Marshal(data)
	if err != nil {
		return v, false
	}
	return v, json.Unmarshal(raw, &v) == nil
}

// watchRun follows one run on mtatd: lifecycle transitions, ~1s stats
// deltas, and flight-recorder events, until the run is terminal.
func (w *watcher) watchRun(ctx context.Context, c *server.Client, id string) error {
	// Seed from the status endpoint so a watch attached after the run
	// finished still renders the outcome (the bus only retains recent
	// history).
	if st, err := c.Run(ctx, id); err == nil && st.State.Terminal() {
		w.note("run %s already %s", st.ID, st.State)
		return runOutcome(st)
	}
	var final *server.RunStatus
	err := w.stream(ctx,
		func(ctx context.Context, lastEventID string) (*telemetry.SSEStream, error) {
			return c.StreamEvents(ctx, id, lastEventID)
		},
		func(ev telemetry.BusEvent) (bool, error) {
			switch ev.Kind {
			case telemetry.EvBusRunState:
				st, ok := decode[server.RunStatus](ev.Data)
				if !ok {
					return false, nil
				}
				w.note("run %s %s%s", st.ID, st.State, errSuffix(st.Error))
				if st.State.Terminal() {
					final = &st
					return true, nil
				}
			case telemetry.EvBusRunStats:
				d, ok := decode[server.RunStatsDelta](ev.Data)
				if !ok {
					return false, nil
				}
				w.note("  t=%5.0fs ticks=%-8d p99=%6.2fms load=%4.2f fmem=%4.2f viol=%-6d promo/s=%-7.0f demo/s=%.0f",
					d.ElapsedS, d.Ticks, d.P99S*1e3, d.Load, d.FMemRatio, d.Violations,
					rate(d.DPromoted, d.IntervalS), rate(d.DDemoted, d.IntervalS))
			case telemetry.EvBusFlight:
				fe, ok := decode[flight.Event](ev.Data)
				if !ok {
					return false, nil
				}
				w.note("  flight t=%.1fs %s wl=%d v=%g%s",
					fe.T, fe.Kind, fe.WL, fe.Value, errSuffix(fe.Detail))
			}
			return false, nil
		})
	if err != nil {
		return err
	}
	if final != nil {
		return runOutcome(*final)
	}
	return nil
}

func runOutcome(st server.RunStatus) error {
	if st.State != server.StateDone {
		return fmt.Errorf("run %s %s: %s", st.ID, st.State, orDash(st.Error))
	}
	return nil
}

// watchSweep follows one sweep on mtatfleet. The status endpoint seeds
// the cell counts; `cell.settled` and `sweep.state` events update them
// live, with an ETA from an EWMA over settled cells' wall times.
func (w *watcher) watchSweep(ctx context.Context, fc *cluster.Client, id string) error {
	st, err := fc.Sweep(ctx, id)
	if err != nil {
		return err
	}
	if st.State.Terminal() {
		w.note("sweep %s already %s (%d done, %d failed of %d cells)",
			st.ID, st.State, st.Done, st.Failed, st.Cells)
		return sweepOutcome(st)
	}
	w.note("sweep %s %s: %d cells (%d done, %d failed, %d running)",
		st.ID, st.State, st.Cells, st.Done, st.Failed, st.Running)
	var (
		ewmaWall float64 // EWMA of settled cell wall seconds
		final    *cluster.SweepStatus
	)
	streamErr := w.stream(ctx,
		func(ctx context.Context, lastEventID string) (*telemetry.SSEStream, error) {
			return fc.StreamEvents(ctx, id, lastEventID)
		},
		func(ev telemetry.BusEvent) (bool, error) {
			switch ev.Kind {
			case telemetry.EvBusCellSettled:
				s, ok := decode[cluster.CellSummary](ev.Data)
				if !ok {
					return false, nil
				}
				if s.State == "done" {
					st.Done++
				} else {
					st.Failed++
				}
				if st.Pending+st.Running > 0 { // keep seeded counts roughly live
					if st.Running > 0 {
						st.Running--
					} else {
						st.Pending--
					}
				}
				// EWMA cell-cost model: recent cells dominate, so the ETA
				// tracks the fleet's current effective throughput.
				const alpha = 0.3
				if ewmaWall == 0 {
					ewmaWall = s.WallSeconds
				} else {
					ewmaWall += alpha * (s.WallSeconds - ewmaWall)
				}
				w.note("  cell %d/%d %s on %s (%.1fs) %s%s  %s",
					st.Done+st.Failed, st.Cells, s.State, orDash(s.Node), s.WallSeconds,
					s.Label, errSuffix(s.Error), w.sweepETA(st, ewmaWall))
			case telemetry.EvBusSweepState:
				ns, ok := decode[cluster.SweepStatus](ev.Data)
				if !ok {
					return false, nil
				}
				st = ns
				if st.State.Terminal() {
					w.note("sweep %s %s: %d done, %d failed, %d retried",
						st.ID, st.State, st.Done, st.Failed, st.Retried)
					final = &st
					return true, nil
				}
			}
			return false, nil
		})
	if streamErr != nil {
		return streamErr
	}
	if final != nil {
		return sweepOutcome(*final)
	}
	return nil
}

// sweepETA projects time-to-completion: remaining cells times the EWMA
// cell cost, divided by the current effective concurrency.
func (w *watcher) sweepETA(st cluster.SweepStatus, ewmaWall float64) string {
	remaining := st.Cells - st.Done - st.Failed
	if remaining <= 0 || ewmaWall <= 0 {
		return ""
	}
	conc := st.Running
	if conc < 1 {
		conc = 1
	}
	eta := time.Duration(float64(remaining) * ewmaWall / float64(conc) * float64(time.Second))
	return "eta " + eta.Round(time.Second).String()
}

func sweepOutcome(st cluster.SweepStatus) error {
	if st.State != cluster.SweepDone {
		return fmt.Errorf("sweep %s %s (%d failed cells)", st.ID, st.State, st.Failed)
	}
	return nil
}

// watchExperiment follows a hypothesis experiment through its journal.
// While the experiment runs via a fleet sweep (Status.SweepID set), the
// sweep's SSE stream carries the live arm progress — each settled cell
// is one measurement — so the watcher attaches to it; otherwise it
// polls the journal until the verdict lands.
func (w *watcher) watchExperiment(ctx context.Context, fc *cluster.Client,
	spec hypothesis.ExperimentSpec, stateDir string) error {
	var lastSettled, lastInFlight = -1, -1
	attachedSweep := ""
	for {
		st, _, err := hypothesis.ReadState(stateDir, spec)
		if err != nil {
			return fmt.Errorf("watch experiment: %w", err)
		}
		if st.Settled != lastSettled || st.InFlight != lastInFlight {
			lastSettled, lastInFlight = st.Settled, st.InFlight
			w.note("experiment %s: %d/%d settled, %d in flight",
				st.Name, st.Settled, st.Cells, st.InFlight)
		}
		if st.Finished {
			w.note("experiment %s finished: verdict %s", st.Name, st.Verdict)
			return nil
		}
		if st.SweepID != "" && st.SweepID != attachedSweep {
			// Fleet mode: cell settlements ARE arm-measurement progress.
			attachedSweep = st.SweepID
			w.note("experiment %s runs as sweep %s; attaching to its stream", st.Name, st.SweepID)
			if err := w.watchSweep(ctx, fc, st.SweepID); err != nil {
				w.note("# sweep stream ended: %v; falling back to journal polling", err)
			}
			continue // re-read the journal: verdict may already be in
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Second):
		}
	}
}

func rate(delta int64, intervalS float64) float64 {
	if intervalS <= 0 {
		return 0
	}
	return float64(delta) / intervalS
}

func errSuffix(s string) string {
	if s == "" {
		return ""
	}
	return " (" + s + ")"
}
