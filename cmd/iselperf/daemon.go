package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one iseld process started with its default flags plus a
// loopback address and a cache directory of its own. The cache directory
// is what gives it a verdict journal, so a later daemon can restart warm
// from a copy of it.
type daemon struct {
	url  string
	dir  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited and been reaped
}

// bootTimeout bounds how long a daemon may take to answer /healthz.
const bootTimeout = 20 * time.Second

// startDaemon runs bin with a fresh loopback port and cacheDir, and
// returns once the daemon answers /healthz. A port another process grabs
// between choosing and binding makes the daemon exit; that is retried.
func startDaemon(ctx context.Context, c *http.Client, bin, cacheDir string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := tryStartDaemon(ctx, c, bin, cacheDir)
		if err == nil {
			return d, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

func tryStartDaemon(ctx context.Context, c *http.Client, bin, cacheDir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-cache-dir", cacheDir)
	cmd.Env = daemonEnv()
	// The daemon's stderr is its access log, one line per request; it goes
	// to the null device, as a production log sink costs about as little.
	cmd.Stdout, cmd.Stderr = nil, nil
	cmd.SysProcAttr = daemonProcAttr()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start iseld: %w", err)
	}
	d := &daemon{url: "http://" + addr, dir: cacheDir, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a daemon we stop carries no information
		close(d.done)
	}()
	deadline := time.Now().Add(bootTimeout)
	for {
		if _, err := get(ctx, c, d.url+"/healthz"); err == nil {
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("iseld on %s exited during boot", addr)
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("iseld on %s did not answer /healthz within %v", addr, bootTimeout)
		}
	}
}

// stop asks the daemon to drain and exit, and kills it if it has not
// exited in time. It returns once the process has been reaped.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// peakRSSMB reads the daemon's high-water resident set size (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// heapTotals reads the daemon's cumulative heap allocation and GC count
// from the runtime statistics its /debug/pprof/heap?debug=1 page ends with.
func (d *daemon) heapTotals(ctx context.Context, c *http.Client) (allocBytes, gcs uint64, err error) {
	body, err := get(ctx, c, d.url+"/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	var sawAlloc, sawGC bool
	for _, line := range bytes.Split(body, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("# TotalAlloc = ")); ok {
			allocBytes, err = strconv.ParseUint(string(v), 10, 64)
			sawAlloc = err == nil
		}
		if v, ok := bytes.CutPrefix(line, []byte("# NumGC = ")); ok {
			gcs, err = strconv.ParseUint(string(v), 10, 64)
			sawGC = err == nil
		}
	}
	if !sawAlloc || !sawGC {
		return 0, 0, errors.New("heap profile lacks TotalAlloc/NumGC")
	}
	return allocBytes, gcs, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// daemonEnv is this process's environment without the variables that
// would configure the daemon away from its defaults.
func daemonEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		name, _, _ := strings.Cut(kv, "=")
		switch {
		case strings.HasPrefix(name, "ISEL_"),
			name == "GOGC", name == "GOMEMLIMIT", name == "GOMAXPROCS", name == "GODEBUG":
			continue
		}
		env = append(env, kv)
	}
	return env
}
