package main

import (
	"bufio"
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
)

// cleanups holds what must not outlive the benchmark: rpsd processes and
// temporary directories. main runs it on every exit path, a signal
// included; entries run last-in first-out and at most once.
var cleanups struct {
	mu  sync.Mutex
	fns []func()
}

func onExit(fn func()) {
	cleanups.mu.Lock()
	cleanups.fns = append(cleanups.fns, fn)
	cleanups.mu.Unlock()
}

func runCleanups() {
	cleanups.mu.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// server is one running rpsd.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	log  string
	once sync.Once
	done chan struct{} // closed once the process has been reaped
	// boot is the time from exec to the first 200 from /peers.
	boot time.Duration
}

// startServer execs rpsd with default flags on a free loopback port and
// waits until /peers answers 200. dataDir, when non-empty, is passed as
// -data-dir.
func startServer(bin, systemPath, dataDir, logPath string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	args := []string{"-system", systemPath, "-listen", addr}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logPath, done: make(chan struct{})}
	onExit(s.stop)
	go func() { _ = cmd.Wait(); close(s.done) }()
	hc := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := hc.Get(s.base + "/peers")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.boot = time.Since(start)
				hc.CloseIdleConnections()
				return s, nil
			}
		}
		select {
		case <-s.done:
			tail, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("rpsd exited during boot: %s", lastLines(string(tail), 5))
		default:
		}
		if time.Since(start) > 60*time.Second {
			s.stop()
			return nil, fmt.Errorf("rpsd did not serve /peers within 60s")
		}
		time.Sleep(time.Millisecond)
	}
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// stop asks rpsd to shut down gracefully (it writes its shutdown
// checkpoints) and kills it if it has not exited within 20 seconds. It
// returns once the process has ended.
func (s *server) stop() {
	s.once.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(20 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
	})
}

// procCPU returns user+system CPU seconds consumed so far by pid.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// the command name is parenthesised and may hold spaces
	rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	const clockTicks = 100 // USER_HZ on Linux
	return (utime + stime) / clockTicks, nil
}

// procPeakRSS returns VmHWM of pid in MB.
func procPeakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU returns user+system CPU seconds of this process.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// scrape reads rpsd's /metrics into a map of series name (labels included)
// to value.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// buildRPSD compiles cmd/rpsd into dir once per checkout state; go build
// leaves an up-to-date binary alone, so later runs pay a stat, not a link.
func buildRPSD(dir string) (string, error) {
	bin := filepath.Join(dir, "rpsd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/rpsd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build repro/cmd/rpsd: %v: %s", err, out)
	}
	return bin, nil
}
