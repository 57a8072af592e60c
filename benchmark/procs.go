package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dpiservice/internal/trace"
)

// This file runs the real daemons as child processes on loopback: build,
// free ports, start with captured logs, wait for /healthz, scrape
// /metrics and /trace, read /proc for CPU and memory, and stop.

// findRoot walks up from the working directory to the repository root
// (the directory holding the daemons' sources).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "dpinstance", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("repository root (cmd/dpinstance) not found above the working directory")
		}
		dir = parent
	}
}

// daemonNames are the binaries a run needs.
var daemonNames = []string{"dpictl", "mboxd", "dpinstance"}

// buildDaemons compiles the daemons from the checkout's sources into
// binDir. The go build cache makes repeat builds cheap.
func buildDaemons(root, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	args := []string{"build", "-o", binDir + string(os.PathSeparator)}
	for _, n := range daemonNames {
		args = append(args, "./cmd/"+n)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build daemons: %w\n%s", err, out)
	}
	return nil
}

// freeAddr reserves a loopback port by binding it and releasing it.
func freeAddr(network string) (string, error) {
	if network == "udp" {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		defer c.Close()
		return c.LocalAddr().String(), nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// daemon is one running child process.
type daemon struct {
	name    string
	cmd     *exec.Cmd
	debug   string // debug-addr host:port, "" when none
	started time.Time
	done    chan struct{} // closed once the process has been waited for
	exitErr error         // valid after done
}

// fleet owns every child of a run, so one call stops them all.
type fleet struct {
	binDir string
	logDir string
	place  placement
	mu     sync.Mutex
	procs  []*daemon
}

// bin returns the path of a daemon built by buildDaemons.
func (f *fleet) bin(name string) string { return filepath.Join(f.binDir, name) }

// start launches exe with args, logging to <logDir>/<name>.log. The
// child is killed by the kernel if this process dies first. With
// instanceCPU it is confined to the instance's CPU, otherwise to the
// CPUs everything else shares.
func (f *fleet) start(name, exe string, instanceCPU bool, args ...string) (*daemon, error) {
	lf, err := os.Create(filepath.Join(f.logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout = lf
	cmd.Stderr = lf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{name: name, cmd: cmd, done: make(chan struct{})}
	for i, a := range args {
		if a == "-debug-addr" && i+1 < len(args) {
			d.debug = args[i+1]
		}
	}
	mask := f.place.others
	if instanceCPU {
		mask = f.place.instance
	}
	err = startPinned(mask, f.place.others, func() error {
		d.started = time.Now()
		return cmd.Start()
	})
	if err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		d.exitErr = cmd.Wait()
		lf.Close()
		close(d.done)
	}()
	f.mu.Lock()
	f.procs = append(f.procs, d)
	f.mu.Unlock()
	return d, nil
}

// stop terminates one daemon: SIGTERM, then SIGKILL after a grace
// period, and waits until it has ended.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(3 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// stopAll stops every child, newest first.
func (f *fleet) stopAll() {
	f.mu.Lock()
	procs := f.procs
	f.procs = nil
	f.mu.Unlock()
	for i := len(procs) - 1; i >= 0; i-- {
		procs[i].stop()
	}
}

// dumpLogs copies every daemon log to w; called when a run fails.
func (f *fleet) dumpLogs(w io.Writer) {
	entries, err := os.ReadDir(f.logDir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".log") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(f.logDir, e.Name()))
		if err != nil {
			continue
		}
		if len(data) > 8192 {
			data = data[len(data)-8192:]
		}
		fmt.Fprintf(w, "---- %s ----\n%s\n", e.Name(), data)
	}
}

var httpClient = &http.Client{Timeout: 5 * time.Second}

func httpGet(addr, path string) ([]byte, error) {
	resp, err := httpClient.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s%s: %s", addr, path, resp.Status)
	}
	return body, nil
}

// waitHealthy polls the daemon's /healthz until it answers 200, the
// process exits, or timeout passes.
func (d *daemon) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if _, err := httpGet(d.debug, "/healthz"); err == nil {
			return nil
		}
		select {
		case <-d.done:
			return fmt.Errorf("%s exited before becoming healthy: %v", d.name, d.exitErr)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v", d.name, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// metrics scrapes /metrics?format=text into name -> value.
func (d *daemon) metrics() (map[string]float64, error) {
	body, err := httpGet(d.debug, "/metrics?format=text")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

// traceDump scrapes /trace.
func (d *daemon) traceDump() (trace.TraceDump, error) {
	var dump trace.TraceDump
	body, err := httpGet(d.debug, "/trace")
	if err != nil {
		return dump, err
	}
	return dump, json.Unmarshal(body, &dump)
}

// clockTick is USER_HZ; Linux fixes it at 100 for every supported
// architecture's /proc interface.
const clockTick = 100

// cpuNanos returns the process's user+system CPU time from
// /proc/<pid>/stat (10 ms resolution).
func (d *daemon) cpuNanos() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after ")".
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	return (utime + stime) * (int64(time.Second) / clockTick), nil
}

// peakRSSMiB returns VmHWM from /proc/<pid>/status.
func (d *daemon) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("VmHWM not found")
}

// selfCPUNanos is this process's user+system CPU time.
func selfCPUNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
