package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procSet tracks every program process the benchmark starts, so that
// each is stopped and waited for on every exit path.
type procSet struct {
	mu    sync.Mutex
	procs []*proc
}

// proc is one started program process.
type proc struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
	done   chan struct{}
	err    error // Wait's result, valid once done is closed
}

// start launches a long-running program process (a daemon). Its
// stderr is kept for diagnostics.
func (ps *procSet) start(name string, args ...string) (*proc, error) {
	p := &proc{cmd: exec.Command(name, args...), done: make(chan struct{})}
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	ps.mu.Lock()
	ps.procs = append(ps.procs, p)
	ps.mu.Unlock()
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// stop asks the process to shut down gracefully (SIGTERM), kills it
// if it has not exited within grace, and waits for it. It returns the
// process's peak resident set size in bytes.
func (p *proc) stop(grace time.Duration) (maxRSS int64, err error) {
	select {
	case <-p.done:
	default:
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // already exiting if this fails
		select {
		case <-p.done:
		case <-time.After(grace):
			_ = p.cmd.Process.Kill() // Wait below reports the outcome
			<-p.done
			return 0, fmt.Errorf("%s: killed after %v without exiting", p.cmd.Path, grace)
		}
	}
	if st := p.cmd.ProcessState; st != nil {
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			maxRSS = ru.Maxrss * 1024 // Linux reports KiB
		}
	}
	if p.err != nil {
		return maxRSS, fmt.Errorf("%s exited: %v: %s", p.cmd.Path, p.err, lastLine(p.stderr.String()))
	}
	return maxRSS, nil
}

func (ps *procSet) stopAll() {
	ps.mu.Lock()
	procs := ps.procs
	ps.procs = nil
	ps.mu.Unlock()
	for _, p := range procs {
		p.stop(5 * time.Second) // exit-path cleanup: the outcome no longer matters
	}
}

// forget drops stopped processes from the set.
func (ps *procSet) forget(stopped ...*proc) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	keep := ps.procs[:0]
	for _, p := range ps.procs {
		gone := false
		for _, s := range stopped {
			gone = gone || p == s
		}
		if !gone {
			keep = append(keep, p)
		}
	}
	ps.procs = keep
}

// runOnce is one completed short-lived program invocation.
type runOnce struct {
	wall   time.Duration
	maxRSS int64 // bytes
	stdout string
	stderr string
}

// runCmd runs a short-lived program to completion, timing it from
// just before start to just after exit. ctx cancellation kills it.
func runCmd(ctx context.Context, name string, args ...string) (runOnce, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err := cmd.Run()
	r := runOnce{wall: time.Since(t0), stdout: out.String(), stderr: errb.String()}
	if st := cmd.ProcessState; st != nil {
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			r.maxRSS = ru.Maxrss * 1024
		}
	}
	if err != nil {
		return r, fmt.Errorf("%s: %w: %s", name, err, lastLine(r.stderr))
	}
	return r, nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	return s[strings.LastIndexByte(s, '\n')+1:]
}

// freePort asks the kernel for an unused loopback port. The listener
// is closed before the daemon binds it; the window is tiny and a
// collision makes the daemon exit, which the readiness wait reports.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}
