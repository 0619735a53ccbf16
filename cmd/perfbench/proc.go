package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// env holds what every workload needs from its surroundings: where the
// built binaries are, a private temp directory, and the children to stop
// on every exit path.
type env struct {
	root string // checkout root
	bin  string // built binaries
	tmp  string // this run's temp dir, removed by cleanup

	mu       sync.Mutex
	children map[*child]bool
}

func newEnv(root string) (*env, error) {
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, fmt.Errorf("creating temp base: %w", err)
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, fmt.Errorf("creating run temp dir: %w", err)
	}
	return &env{root: root, bin: filepath.Join(root, ".bench_build", "bin"), tmp: tmp, children: map[*child]bool{}}, nil
}

// cleanup kills every child still running, waits for it, and removes the
// run's temp dir. It runs on success, on failure and on a signal.
func (e *env) cleanup() {
	e.mu.Lock()
	kids := make([]*child, 0, len(e.children))
	for c := range e.children {
		kids = append(kids, c)
	}
	e.mu.Unlock()
	for _, c := range kids {
		c.kill()
	}
	os.RemoveAll(e.tmp)
}

// child is one spawned program. Its stdout is scanned line by line; the
// first line's arrival time is kept, for set-up time.
type child struct {
	cmd     *exec.Cmd
	start   time.Time
	first   chan time.Time // receives the first stdout line's time once
	lines   []string
	stderr  bytes.Buffer  // captured stderr when lines are kept
	done    chan struct{} // closed when the process has been reaped
	waitErr error
}

// spawn starts a built binary with args in the checkout root. With
// keepLines, stdout lines and stderr are kept for checks and stderr is
// echoed once the child exits; otherwise stderr passes straight through.
// The child is killed when ctx ends, and dies with the benchmark.
func (e *env) spawn(ctx context.Context, keepLines bool, name string, args ...string) (*child, error) {
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, name), args...)
	cmd.Dir = e.root
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("%s: stdout pipe: %w", name, err)
	}
	c := &child{cmd: cmd, first: make(chan time.Time, 1), done: make(chan struct{})}
	cmd.Stderr = os.Stderr
	if keepLines {
		cmd.Stderr = &c.stderr
	}
	c.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	e.mu.Lock()
	e.children[c] = true
	e.mu.Unlock()
	go func() {
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		seen := false
		for sc.Scan() {
			if !seen {
				c.first <- time.Now()
				seen = true
			}
			if keepLines {
				c.lines = append(c.lines, sc.Text())
			}
		}
		io.Copy(io.Discard, out)
		c.waitErr = cmd.Wait()
		os.Stderr.Write(c.stderr.Bytes())
		e.mu.Lock()
		delete(e.children, c)
		e.mu.Unlock()
		close(c.done)
	}()
	return c, nil
}

// wait blocks until the child exits and returns its error; lines is safe to
// read afterwards.
func (c *child) wait() error {
	<-c.done
	return c.waitErr
}

// stop asks the child to exit with SIGTERM and kills it after grace.
func (c *child) stop(grace time.Duration) error {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(grace):
		c.cmd.Process.Kill()
		<-c.done
	}
	return c.waitErr
}

func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.done
}

// maxRSSMB is the reaped child's peak resident set, in MiB (Linux reports
// ru_maxrss in KiB).
func (c *child) maxRSSMB() float64 {
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// waitHealthy polls url until it answers 200 and returns the time from
// spawn to that answer.
func (c *child) waitHealthy(ctx context.Context, client *http.Client, url string, limit time.Duration) (time.Duration, error) {
	deadline := c.start.Add(limit)
	for {
		select {
		case <-c.done:
			return 0, fmt.Errorf("server exited before becoming healthy: %v", c.waitErr)
		case <-ctx.Done():
			return 0, ctx.Err()
		default:
		}
		if resp, err := client.Get(url); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(c.start), nil
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("server not healthy after %v", limit)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// startSpinners starts one `perfbench --spin` child per vCPU. A vCPU that
// has nothing to run halts, and waking it costs a trip through the host's
// scheduler whose length depends on the host's load; a served request wakes
// a halted vCPU on most of its hops. The spinners run at SCHED_IDLE, so
// any other thread preempts them at once, and the vCPUs never halt.
func (e *env) startSpinners(ctx context.Context) error {
	for cpu := 0; cpu < runtime.NumCPU(); cpu++ {
		if _, err := e.spawn(ctx, false, "perfbench", "--spin", strconv.Itoa(cpu)); err != nil {
			return err
		}
	}
	return nil
}

// schedIdle is Linux's SCHED_IDLE policy.
const schedIdle = 5

var spinSink uint64

// spin pins the calling thread to the i-th vCPU this process may run on,
// drops it to SCHED_IDLE and loops until the process is killed.
func spin(i int) int {
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	var mask [16]uint64 // room for 1024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		fmt.Fprintln(os.Stderr, "perfbench: spin: sched_getaffinity:", errno)
		return 1
	}
	var one [16]uint64
	for cpu, seen := 0, 0; cpu < 64*len(mask); cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			if seen == i {
				one[cpu/64] = 1 << (cpu % 64)
				break
			}
			seen++
		}
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno != 0 {
		fmt.Fprintln(os.Stderr, "perfbench: spin: sched_setaffinity:", errno)
		return 1
	}
	var param int32
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		fmt.Fprintln(os.Stderr, "perfbench: spin: sched_setscheduler:", errno)
		return 1
	}
	for {
		spinSink++
	}
}
