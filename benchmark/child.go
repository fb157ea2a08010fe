//go:build linux

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"topkmon/internal/serve"
)

// daemon is a running topkd front end the serve workloads drive.
type daemon interface {
	url() string
	// cpu is the user+sys CPU the daemon has used so far.
	cpu() time.Duration
	// peakRSSMB is the daemon's resident-set high-water mark.
	peakRSSMB() float64
	// kill stops the daemon the hard way (SIGKILL for a child) and waits
	// until it is gone. Safe to call twice.
	kill()
}

// startDaemon boots a daemon — the built topkd as a child process, or the
// same serve.Server in-process when env.topkd is empty — on dataDir (empty
// = volatile) and returns it with the wall time from start to the first
// 200 on /healthz.
func startDaemon(env runEnv, dataDir string) (daemon, time.Duration, error) {
	if env.topkd == "" {
		return startInProcess(dataDir)
	}
	return startChild(env.ctx, env.topkd, dataDir)
}

// child is topkd as a child process.
type child struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	exited chan struct{} // closed once Wait has returned
}

func (c *child) url() string { return c.base }

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func startChild(ctx context.Context, bin, dataDir string) (*child, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-addr", addr, "-lazy=false"}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-fsync", "always")
	}
	c := &child{base: "http://" + addr, exited: make(chan struct{})}
	c.cmd = exec.CommandContext(ctx, bin, args...)
	c.cmd.Stderr = &c.stderr
	// If the benchmark itself is killed, the kernel takes the child along.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		c.cmd.Wait()
		close(c.exited)
	}()

	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := start.Add(30 * time.Second)
	for {
		resp, err := client.Get(c.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, time.Since(start), nil
			}
		}
		select {
		case <-c.exited:
			return nil, 0, fmt.Errorf("topkd exited during boot: %s", strings.TrimSpace(c.stderr.String()))
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, 0, errors.New("topkd did not answer /healthz within 30 s")
		}
	}
}

func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.exited
}

// cpu sums the on-CPU nanoseconds of the child's threads from
// /proc/<pid>/task/*/schedstat (nanosecond counters; /proc/<pid>/stat only
// has 10 ms ticks). A kernel without schedstat reads 0, which fails the run
// on cpu_us_per_update rather than report a guess.
func (c *child) cpu() time.Duration {
	tasks, _ := filepath.Glob("/proc/" + strconv.Itoa(c.cmd.Process.Pid) + "/task/*/schedstat")
	var ns int64
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		if f := strings.Fields(string(data)); len(f) > 0 {
			v, _ := strconv.ParseInt(f[0], 10, 64)
			ns += v
		}
	}
	return time.Duration(ns)
}

func (c *child) peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(c.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// inProcess is the same serve.Server behind an httptest listener: the
// loopback depth of the peel, and the smoke test's stand-in for the child.
type inProcess struct {
	srv *serve.Server
	ts  *httptest.Server
}

func startInProcess(dataDir string) (*inProcess, time.Duration, error) {
	start := time.Now()
	srv, err := serve.New(serveOptions(dataDir))
	if err != nil {
		return nil, 0, err
	}
	return &inProcess{srv: srv, ts: httptest.NewServer(srv)}, time.Since(start), nil
}

// serveOptions mirrors the flags startChild passes to topkd.
func serveOptions(dataDir string) serve.Options {
	o := serve.Options{}
	if dataDir != "" {
		o.Durability = serve.Durability{Dir: dataDir, Fsync: "always"}
	}
	return o
}

func (p *inProcess) url() string        { return p.ts.URL }
func (p *inProcess) cpu() time.Duration { return selfCPU() }
func (p *inProcess) peakRSSMB() float64 { return 0 }

func (p *inProcess) kill() {
	if p.ts != nil {
		p.ts.Close()
		p.srv.Close()
		p.ts = nil
	}
}
