package main

// The filter-server child process: start on a free loopback port, wait
// for readiness, read its peak RSS, and stop it.

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverFlags are the fixed flags every end-to-end server runs with:
// tracing fully off, no autotune, no data dir.
var serverFlags = []string{"-trace-sample", "0", "-trace-slow-ns", "-1"}

// tracedFlags sample every batch request into the span ring.
var tracedFlags = []string{"-trace-sample", "1", "-trace-slow-ns", "-1"}

type serverProc struct {
	cmd  *exec.Cmd
	addr string        // host:port
	base string        // http://addr
	done chan struct{} // closed once the process has been waited for
}

// live holds every started, not yet stopped server, so an interrupted
// benchmark can stop them all.
var live struct {
	sync.Mutex
	procs map[*serverProc]bool
}

func stopAll() {
	live.Lock()
	procs := make([]*serverProc, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	live.Unlock()
	for _, p := range procs {
		p.stop()
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs bin on a free loopback port and waits until /readyz
// answers 200. stderr receives the server's log.
func startServer(bin string, flags []string, stderr *os.File) (*serverProc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, fmt.Errorf("pick a port: %w", err)
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
		cmd.Stdout, cmd.Stderr = stderr, stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start %s: %w", bin, err)
		}
		p := &serverProc{cmd: cmd, addr: addr, base: "http://" + addr, done: make(chan struct{})}
		go func() { cmd.Wait(); close(p.done) }()
		live.Lock()
		if live.procs == nil {
			live.procs = map[*serverProc]bool{}
		}
		live.procs[p] = true
		live.Unlock()
		if lastErr = p.waitReady(30 * time.Second); lastErr == nil {
			return p, nil
		}
		p.stop() // most likely lost the port race; retry on another
	}
	return nil, lastErr
}

func (p *serverProc) waitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("server exited before becoming ready: %v", p.cmd.ProcessState)
		default:
		}
		resp, err := hc.Get(p.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("server not ready after %v", timeout)
}

// peakRSSMiB reads the process's VmHWM from /proc.
func (p *serverProc) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// stop sends SIGTERM, escalates to SIGKILL after ten seconds, and returns
// once the process has exited.
func (p *serverProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
}

// cpuTimes reads the host-wide CPU time counters from /proc/stat: the
// total and the part stolen by the hypervisor. ok is false where they are
// unavailable.
func cpuTimes() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}
