package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one mtatd process the benchmark started. stop must be called
// on every path; it returns once the process has exited.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	log    string
	exited chan struct{}
}

// startTimeout bounds exec → /readyz.
const startTimeout = 20 * time.Second

// startDaemon execs mtatd on a free loopback port with a journal in
// dataDir (fsync on every append) and waits for /readyz. It returns the
// daemon and the time from exec to ready.
func startDaemon(ctx context.Context, bin, dataDir string) (*daemon, time.Duration, error) {
	if bin == "" {
		return nil, 0, fmt.Errorf("no mtatd binary given (-mtatd)")
	}
	logPath := dataDir + ".log"
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logFile.Close()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir, "-fsync")
	cmd.Stderr = logFile
	// Should the benchmark itself be killed, the kernel kills the daemon.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("exec mtatd: %w", err)
	}
	d := &daemon{cmd: cmd, log: logPath, exited: make(chan struct{})}
	firstLine := make(chan string, 1)
	go func() {
		br := bufio.NewReader(stdout)
		line, _ := br.ReadString('\n')
		firstLine <- line
		_, _ = io.Copy(io.Discard, br) // keep the pipe drained until exit
		_ = cmd.Wait()
		close(d.exited)
	}()

	sctx, cancel := context.WithTimeout(ctx, startTimeout)
	defer cancel()
	fail := func(err error) (*daemon, time.Duration, error) {
		d.stop()
		return nil, 0, fmt.Errorf("%w (daemon log: %s)", err, d.logTail())
	}
	select {
	case line := <-firstLine:
		// "mtatd: listening on http://127.0.0.1:PORT (workers N, queue M)"
		const marker = "listening on http://"
		i := strings.Index(line, marker)
		if i < 0 {
			return fail(fmt.Errorf("mtatd did not print its listen address (got %q)", line))
		}
		d.addr = strings.Fields(line[i+len(marker):])[0]
	case <-sctx.Done():
		return fail(fmt.Errorf("waiting for mtatd's listen address: %w", sctx.Err()))
	}
	for !ready(sctx, d.url("/readyz")) {
		select {
		case <-d.exited:
			return fail(fmt.Errorf("mtatd exited before it was ready"))
		case <-sctx.Done():
			return fail(fmt.Errorf("waiting for mtatd /readyz: %w", sctx.Err()))
		case <-time.After(time.Millisecond):
		}
	}
	return d, time.Since(start), nil
}

func ready(ctx context.Context, url string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// stopGrace is how long a SIGTERMed daemon may take to drain and exit
// before it is killed.
const stopGrace = 10 * time.Second

// stop terminates the daemon (SIGTERM, then SIGKILL after stopGrace) and
// waits for it to exit. Safe to call more than once.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(stopGrace):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// peakRSSMB reads the daemon's peak resident set size (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest) // "12345 kB"
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// clockTicks is Linux's USER_HZ, the unit of /proc/<pid>/stat CPU times.
const clockTicks = 100

// cpuSeconds reads the daemon's user plus system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, starting at field 3
	// (state); utime and stime are fields 14 and 15.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", d.cmd.Process.Pid)
	}
	utime, err := strconv.ParseFloat(f[11], 64)
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseFloat(f[12], 64)
	if err != nil {
		return 0, err
	}
	return (utime + stime) / clockTicks, nil
}

// logTail is the end of the daemon's stderr, for error messages.
func (d *daemon) logTail() string {
	data, _ := os.ReadFile(d.log)
	s := strings.TrimSpace(string(data))
	if len(s) > 600 {
		s = "..." + s[len(s)-600:]
	}
	return s
}
