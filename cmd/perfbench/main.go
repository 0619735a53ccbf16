package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints. Failed counts operations that
// failed and output checks that did not hold.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// check records one output check; a failed check counts as a failed
// operation and is explained on stderr.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// workloads maps each workload to its end-to-end run. Every workload's
// traced run is traceSuite, which sizes each layer group by the workload.
var workloads = map[string]func(context.Context, *env, config, *result) error{
	"sweep":       runSweep,
	"serve_mixed": runServeMixed,
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var trace, spinCPU int
	flag.StringVar(&cfg.workload, "workload", "", "workload: sweep or serve_mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced in-process layer suite instead of the end-to-end run")
	flag.IntVar(&spinCPU, "spin", -1, "internal: keep the i-th vCPU this process may use busy at idle priority until killed")
	flag.Parse()
	if spinCPU >= 0 {
		return spin(spinCPU)
	}
	cfg.trace = trace == 1
	fn, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(names, ","))
		return 2
	}

	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e, err := newEnv(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer e.cleanup()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	host := describeHost()
	res := &result{}
	if cfg.trace {
		fn = traceSuite
	}
	// e.cleanup stops the spinners.
	if err := e.startSpinners(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	busy0, steal0 := hostCPU()
	err = fn(ctx, e, cfg, res)
	busy1, steal1 := hostCPU()
	// The share of the time this VM's vCPUs wanted to run but the host ran
	// something else; it shows when the host, not the program, moved a run.
	if want := busy1 - busy0 + steal1 - steal0; want > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: host steal %.1f%% of busy vCPU time\n", 100*(steal1-steal0)/want)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not finite\n", name)
			return 1
		}
	}
	if cfg.trace {
		res.set("host.calibration_ns", "ns", host.CalibrationNs)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	hostLine, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostLine)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// host describes the machine a result was taken on, so results from
// different CPUs compare through the calibration loop instead of by hand.
type host struct {
	CPU           string  `json:"cpu"`
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go"`
	CalibrationNs float64 `json:"calibration_ns_per_iter"`
}

func describeHost() host {
	return host{
		CPU:           cpuModel(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		CalibrationNs: calibrate(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

var calibrationSink uint64

// calibrate times a fixed xorshift loop, 2^24 dependent integer steps, and
// returns the median nanoseconds per step over five repetitions. Dividing a
// timing by this figure compares runs across CPUs.
func calibrate() float64 {
	const iters = 1 << 24
	var per []float64
	for rep := 0; rep < 5; rep++ {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/iters)
		calibrationSink += x
	}
	return quantile(per, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// hostCPU returns the busy and the stolen seconds of all vCPUs since boot,
// from /proc/stat; both are 0 where it cannot be read.
func hostCPU() (busy, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var v [8]float64
	for i := range v {
		v[i], _ = strconv.ParseFloat(f[i+1], 64)
	}
	// user, nice, system, irq and softirq are busy; idle and iowait are
	// not. /proc/stat counts in USER_HZ, 100 per second on Linux.
	return (v[0] + v[1] + v[2] + v[5] + v[6]) / 100, v[7] / 100
}
