package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/tieredmem/mtat/internal/server"
)

// cmdProfile fetches a pprof profile from a daemon's /debug/pprof/
// surface and writes it to disk, ready for `go tool pprof`. The kind may
// come before or after the flags (`mtatctl profile cpu -seconds 10` and
// `mtatctl profile -seconds 10 cpu` both work).
func cmdProfile(ctx context.Context, c *server.Client, args []string) error {
	// Allow the conventional kind-first form: the flag package stops at
	// the first positional argument, so hoist it out before parsing.
	var kind string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		kind, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("mtatctl profile", flag.ContinueOnError)
	node := fs.String("node", "", "daemon address to profile instead of the default mtatd (any mtatd/mtatfleet URL)")
	seconds := fs.Int("seconds", server.DefaultProfileSeconds, "CPU profile duration (cpu kind only)")
	out := fs.String("o", "", `output file (default "<kind>.pprof"; "-" for stdout)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch fs.NArg() {
	case 0:
	case 1:
		if kind != "" {
			return fmt.Errorf("profile: exactly one profile kind required")
		}
		kind = fs.Arg(0)
	default:
		return fmt.Errorf("profile: exactly one profile kind required")
	}
	switch kind {
	case "cpu", "heap", "allocs":
	default:
		return fmt.Errorf("profile: unknown kind %q (valid: cpu, heap, allocs)", kind)
	}
	if *node != "" {
		c = server.NewClient(*node)
	}
	path := *out
	if path == "" {
		path = kind + ".pprof"
	}
	if path == "-" {
		return c.Profile(ctx, kind, *seconds, os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if kind == "cpu" {
		fmt.Fprintf(os.Stderr, "profiling %s for %ds...\n", c.BaseURL, *seconds)
	}
	if err := c.Profile(ctx, kind, *seconds, f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s profile of %s\n", kind, c.BaseURL)
	// The bare path on stdout is the scripting contract:
	// `go tool pprof $(mtatctl profile cpu)`.
	fmt.Println(path)
	return nil
}

// cmdFlight dumps a run's flight recorder — the recent core events
// (promotions, demotions, SLO violations, policy switches, load shifts)
// of the run's bounded trace — as JSON on stdout. Works on live runs
// too, for peeking at a slow cell mid-flight. -follow keeps polling with the ?after=
// cursor, printing only events newer than the last poll (JSONL).
func cmdFlight(ctx context.Context, c *server.Client, args []string) error {
	fs := flag.NewFlagSet("mtatctl flight", flag.ContinueOnError)
	node := fs.String("node", "", "daemon address to query instead of the default mtatd")
	follow := fs.Bool("follow", false, "poll for new events (JSONL; stops when the run is terminal)")
	poll := fs.Duration("poll", time.Second, "poll interval with -follow")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("flight: exactly one run ID required")
	}
	if *node != "" {
		c = server.NewClient(*node)
	}
	id := fs.Arg(0)
	if !*follow {
		return c.Flight(ctx, id, os.Stdout)
	}
	enc := json.NewEncoder(os.Stdout)
	var after uint64
	for {
		dump, err := c.FlightAfter(ctx, id, after)
		if err != nil {
			return err
		}
		for _, ev := range dump.Events {
			if err := enc.Encode(ev); err != nil {
				return err
			}
			after = ev.Seq
		}
		// Check for the terminal state after draining, so the tail of
		// events recorded just before the run finished still prints.
		st, err := c.Run(ctx, id)
		if err != nil {
			return err
		}
		if st.State.Terminal() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(*poll):
		}
	}
}
