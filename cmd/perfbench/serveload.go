package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dpbench/internal/serve"
)

// queryEps is the epsilon of every query; budgets are far above what a run
// can spend, so no request is refused.
const (
	queryEps       = 0.1
	numKeys        = 1000
	queriesPerCall = 8
	// serveRounds is how many open-loop and closed-loop segment pairs a
	// serve run alternates; each reported metric is the median over them.
	// Closed-loop capacity swung by up to 20% between consecutive 2 s
	// segments on the 2-vCPU reference host, so a run takes the median of
	// many short segments.
	serveRounds = 15
)

// cellSpec is one precompiled (dataset, mechanism) cell the load targets.
type cellSpec struct {
	dataset, mech string
	dims          []int
}

func (c cellSpec) dim() string { return strconv.Itoa(len(c.dims)) + "d" }

var (
	adult   = []int{1024}
	gowalla = []int{64, 64}
)

// serveSpec describes a served load: the cells it targets and, for the
// end-to-end run, the open-loop rate.
type serveSpec struct {
	cells []cellSpec
	// openRate is the open-loop query rate, below the mix's capacity.
	openRate float64
}

var mixedSpec = serveSpec{
	cells: []cellSpec{
		{"ADULT", "IDENTITY", adult}, {"ADULT", "HB", adult}, {"ADULT", "DAWA", adult},
		{"GOWALLA", "HB", gowalla}, {"GOWALLA", "DAWA", gowalla}, {"GOWALLA", "AGRID", gowalla},
		{"GOWALLA", "DPCUBE", gowalla}, {"GOWALLA", "HYBRIDTREE", gowalla},
	},
	openRate: 400,
}

// serveSpawns is how many times serve_mixed times set-up; the median is
// reported.
const serveSpawns = 15

func keyName(i int) string { return fmt.Sprintf("k%03d", i) }

// queryReq is one generated query request; bodies are pre-encoded.
type queryReq struct {
	key  int
	cell int
	n    int
	body []byte
}

// makeQueries draws count requests uniformly over cells and keys, each with
// queriesPerCall random ranges (1D) or rectangles (2D).
func makeQueries(rng *rand.Rand, cells []cellSpec, count int) []queryReq {
	out := make([]queryReq, count)
	for i := range out {
		ci := rng.Intn(len(cells))
		c := cells[ci]
		q := serve.QueryRequest{Key: keyName(rng.Intn(numKeys)), Dataset: c.dataset, Mechanism: c.mech, Epsilon: queryEps}
		for j := 0; j < queriesPerCall; j++ {
			if len(c.dims) == 1 {
				lo, hi := ordered(rng, c.dims[0])
				q.Ranges = append(q.Ranges, serve.Range{Lo: lo, Hi: hi})
			} else {
				y0, y1 := ordered(rng, c.dims[0])
				x0, x1 := ordered(rng, c.dims[1])
				q.Rects = append(q.Rects, serve.Rect{Y0: y0, X0: x0, Y1: y1, X1: x1})
			}
		}
		body, _ := json.Marshal(q) // plain structs always marshal
		key, _ := strconv.Atoi(q.Key[1:])
		out[i] = queryReq{key: key, cell: ci, n: queriesPerCall, body: body}
	}
	return out
}

func ordered(rng *rand.Rand, n int) (int, int) {
	a, b := rng.Intn(n), rng.Intn(n)
	if a > b {
		a, b = b, a
	}
	return a, b
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// serveConfig is the server a serve workload runs: its cells' datasets and
// mechanisms at queryEps, with budgets no run can exhaust and dpbench's
// default data seed.
func serveConfig(spec serveSpec) serve.Config {
	cfg := serve.Config{Epsilons: []float64{queryEps}, KeyBudget: 1e6, TotalBudget: 1e9, Seed: goldenSeed}
	seen := map[string]bool{}
	for _, c := range spec.cells {
		if !seen["d"+c.dataset] {
			seen["d"+c.dataset] = true
			cfg.Datasets = append(cfg.Datasets, c.dataset)
		}
		if !seen["m"+c.mech] {
			seen["m"+c.mech] = true
			cfg.Mechanisms = append(cfg.Mechanisms, c.mech)
		}
	}
	return cfg
}

// serveArgs is serveConfig as `dpbench serve` flags.
func serveArgs(addr string, spec serveSpec) []string {
	cfg := serveConfig(spec)
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	args := []string{"serve", "-addr", addr, "-datasets", strings.Join(cfg.Datasets, ","),
		"-mechanisms", strings.Join(cfg.Mechanisms, ","), "-eps", f(queryEps),
		"-key-budget", f(cfg.KeyBudget), "-total-budget", f(cfg.TotalBudget), "-seed", strconv.FormatInt(cfg.Seed, 10)}
	return args
}

// serveLoad is the requests generated from the seed before a serve run.
type serveLoad struct {
	reqs []queryReq
	open []timed // the traced run's open-loop schedule
}

// closedPool is how many requests a serve run cycles through; a repeated
// request charges its key again, which the budget check counts.
const closedPool = 8192

// closedCalls returns the call source of one closed-loop segment, which
// starts at request off of the pool.
func (l *serveLoad) closedCalls(off int) func(i int) call {
	return func(i int) call {
		r := (off + i) % len(l.reqs)
		return call{body: l.reqs[r].body, req: r}
	}
}

// runServeMixed measures dpbench serve as a child process: set-up time
// over serveSpawns restarts, a 1 s warm-up, then rounds of a serial
// segment (one client) for latency and a closed-loop segment (nproc
// clients) for capacity.
func runServeMixed(ctx context.Context, e *env, cfg config, res *result) error {
	spec := mixedSpec
	// The run alternates serveRounds serial and closed-loop segments, so
	// each metric samples the host across the whole run. Two thirds of the
	// time go to the serial segments, whose queries are fewer per second.
	round := time.Duration(cfg.seconds / serveRounds * float64(time.Second))
	serialDur := round * 2 / 3
	closedDur := round - serialDur
	// One OS thread is plenty for nproc connections, and it leaves the
	// server's threads the cores: with two generator threads on a 2-vCPU
	// host, p50 and p99 spread 3x wider over runs.
	runtime.GOMAXPROCS(1)
	load := &serveLoad{reqs: makeQueries(rand.New(rand.NewSource(cfg.seed)), spec.cells, closedPool)}
	var setup []float64
	var srv *child
	var base string
	for k := 0; k < serveSpawns; k++ {
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		c, err := e.spawn(ctx, false, "dpbench", serveArgs(addr, spec)...)
		if err != nil {
			return err
		}
		probe := newLoadgen("http://"+addr, 1)
		d, err := c.waitHealthy(ctx, probe.client, "http://"+addr+"/healthz", 120*time.Second)
		probe.close()
		if err != nil {
			return err
		}
		setup = append(setup, d.Seconds())
		if k < serveSpawns-1 {
			if err := c.stop(30 * time.Second); err != nil {
				return fmt.Errorf("stopping server: %w", err)
			}
			continue
		}
		srv, base = c, "http://"+addr
	}

	one := newLoadgen(base, 1)
	defer one.close()
	g := newLoadgen(base, runtime.NumCPU())
	defer g.close()
	// A short closed-loop warm-up lets the server's heap and pools settle;
	// its replies are checked like the rest.
	warm := g.closedLoop(ctx, time.Second, load.closedCalls(0))
	next := len(warm)
	var serial, closed []sample
	closedSecs := 0.0
	for r := 0; r < serveRounds; r++ {
		s := one.closedLoop(ctx, serialDur, load.closedCalls(next))
		next += len(s)
		t0 := time.Now()
		c := g.closedLoop(ctx, closedDur, load.closedCalls(next))
		closedSecs += time.Since(t0).Seconds()
		next += len(c)
		serial, closed = append(serial, s...), append(closed, c...)
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	okSerial := checkServeSamples(load, serial, res)
	okClosed := checkServeSamples(load, append(warm, closed...), res)
	checkBudgets(ctx, g, load, append(okSerial, okClosed...), res)

	if err := srv.stop(30 * time.Second); err != nil {
		return fmt.Errorf("stopping server: %w", err)
	}
	// The query p99 is printed, not reported: over 5-10 runs on the 2-vCPU
	// reference host its spread was 30-80% of its median, beyond any bound
	// a regression gate could use.
	lat := queryLatencies(serial)
	fmt.Fprintf(os.Stderr, "perfbench: %d serial queries (p50 %.3f ms, p99 %.2f ms), %d closed-loop queries in %.2fs\n",
		len(okSerial), quantile(lat, 0.5), quantile(lat, 0.99), len(okClosed), closedSecs)
	res.set("setup_s", "s", quantile(setup, 0.5))
	res.set("op_p50_ms", "ms", cellP50Ms(load, serial, len(spec.cells)))
	res.set("throughput_per_s", "1/s", float64(answered(closed))/closedSecs)
	res.set("peak_rss_mb", "MB", srv.maxRSSMB())
	return nil
}

// cellP50Ms is the mean over the cells of each cell's median latency in
// ss, in ms. Taking each cell's median first keeps the figure off the
// boundary between two cells' latencies, where the median of the whole mix
// falls when the cells are drawn uniformly.
func cellP50Ms(l *serveLoad, ss []sample, cells int) float64 {
	per := make([][]float64, cells)
	for _, s := range ss {
		c := l.reqs[s.call.req].cell
		per[c] = append(per[c], float64(s.latency().Nanoseconds())/1e6)
	}
	sum := 0.0
	for _, xs := range per {
		sum += quantile(xs, 0.5)
	}
	return sum / float64(cells)
}

// committed is one query the server answered with 200.
type committed struct {
	req int
	seq uint64
}

// checkServeSamples checks every query response: it must answer 200 with
// one finite answer per range. It returns the answered queries.
func checkServeSamples(l *serveLoad, ss []sample, res *result) []committed {
	var ok []committed
	for _, s := range ss {
		res.Attempted++
		var qr serve.QueryResponse
		err := json.Unmarshal(s.body, &qr)
		good := s.err == nil && s.status == 200 && err == nil && len(qr.Answers) == l.reqs[s.call.req].n
		for _, a := range qr.Answers {
			good = good && !math.IsNaN(a) && !math.IsInf(a, 0)
		}
		if !good {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: query %d: status %d, error %v, decode %v: %s\n", s.call.req, s.status, s.err, err, s.body)
			continue
		}
		ok = append(ok, committed{req: s.call.req, seq: qr.Seq})
	}
	return ok
}

// queryLatencies returns the latency, in ms, of every query in ss.
func queryLatencies(ss []sample) []float64 {
	var out []float64
	for _, s := range ss {
		out = append(out, float64(s.latency().Nanoseconds())/1e6)
	}
	return out
}

// answered counts the queries in ss answered with 200.
func answered(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.status == 200 {
			n++
		}
	}
	return n
}

// checkBudgets checks, after the load and outside the timed window, that
// every key's spent budget equals its successful queries times eps exactly.
func checkBudgets(ctx context.Context, g *loadgen, l *serveLoad, ok []committed, res *result) {
	count := make([]int, numKeys)
	for _, c := range ok {
		count[l.reqs[c.req].key]++
	}
	for k, n := range count {
		if n == 0 {
			continue
		}
		want := 0.0
		for i := 0; i < n; i++ {
			want += queryEps
		}
		var s sample
		g.do(ctx, call{get: "/v1/budget?key=" + keyName(k), req: -1}, &s)
		var br serve.BudgetResponse
		err := json.Unmarshal(s.body, &br)
		res.check(s.err == nil && s.status == 200 && err == nil && br.Spent == want,
			"key %s spent %v, want %v (%d spends)", keyName(k), br.Spent, want, n)
	}
}
