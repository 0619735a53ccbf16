package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpbench/internal/algo"
	"dpbench/internal/analysis"
	"dpbench/internal/analysis/allocfree"
	"dpbench/internal/analysis/budgetlabel"
	"dpbench/internal/analysis/determinism"
	"dpbench/internal/analysis/driver"
	"dpbench/internal/analysis/epsflow"
	"dpbench/internal/analysis/internalboundary"
	"dpbench/internal/analysis/load"
	"dpbench/internal/analysis/noisegate"
	"dpbench/internal/analysis/privtaint"
	"dpbench/internal/analysis/subclose"
	"dpbench/internal/core"
	"dpbench/internal/dataset"
	"dpbench/internal/ledger"
	"dpbench/internal/noise"
	"dpbench/internal/serve"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// The traced run calls each layer's public functions in-process and
// records a span around every call. Every workload reports every layer:
// the workload's own path runs at its full size, and the other paths run
// as small fixed probes, so a layer metric on a workload that does not
// exercise that layer is predicted not to change.

// phase summarizes a workload's own traced phase: the share of wall time x
// concurrency its layer spans cover, and how much slower the traced phase
// ran than the same work untraced.
type phase struct {
	covered, overhead float64
}

type tracer struct {
	e   *env
	cfg config
	rec *recorder
	res *result
}

func traceSuite(ctx context.Context, e *env, cfg config, res *result) error {
	t := &tracer{e: e, cfg: cfg, rec: newRecorder(), res: res}
	groups := []struct {
		workload string
		run      func(context.Context, *tracer, bool) (phase, error)
	}{
		{"sweep", traceSweep},
		{"serve_mixed", traceServe},
	}
	var own phase
	for _, g := range groups {
		p, err := g.run(ctx, t, g.workload == cfg.workload)
		if err != nil {
			return fmt.Errorf("%s layers: %w", g.workload, err)
		}
		if g.workload == cfg.workload {
			own = p
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	// No workload drives the durable ledger or the lint end to end, so
	// their layers are always probes.
	if err := traceLedger(ctx, t); err != nil {
		return fmt.Errorf("ledger layers: %w", err)
	}
	if err := traceLint(ctx, t); err != nil {
		return fmt.Errorf("lint layers: %w", err)
	}
	res.set("trace.covered_share", "share", own.covered)
	res.set("trace.overhead_share", "share", own.overhead)
	path, self, err := writeTrace(e, cfg, t.rec)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	var b strings.Builder
	for _, l := range layers {
		fmt.Fprintf(&b, " %s=%.1fms", l, float64(self[l].Nanoseconds())/1e6)
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace %s; self time:%s\n", path, b.String())
	return nil
}

// metricName makes a mechanism name usable in a metric name ("MWEM*" has
// a star).
func metricName(mech string) string { return strings.ReplaceAll(mech, "*", "-star") }

// ---- sweep: dataset, workload, algo, core ----

// sweepFig is one figure of the traced sweep grid.
type sweepFig struct {
	dim      string
	dims     []int
	datasets []string
	scales   []int
	w        *workload.Workload
	roster   []string
}

// sweepFigs mirrors the end-to-end sweep (Figure 1a at domain 4096 and
// Figure 1b at 32x32, quick grid, with dpbench's workloads for the seed)
// or, as a probe, one dataset and one scale per figure.
func sweepFigs(full bool, seed int64) []sweepFig {
	w2 := workload.RandomRange2D(32, 32, 200, rand.New(rand.NewSource(seed+1)))
	if !full {
		return []sweepFig{
			{"1d", []int{512}, []string{"ADULT"}, []int{1e5}, workload.Prefix(512), sweepFigures[0].roster},
			{"2d", []int{32, 32}, []string{"GOWALLA"}, []int{1e5}, w2, sweepFigures[1].roster},
		}
	}
	return []sweepFig{
		{"1d", []int{4096}, []string{"ADULT", "HEPPH", "TRACE", "BIDS-ALL", "MD-SAL", "PATENT"}, []int{1e3, 1e5, 1e7}, workload.Prefix(4096), sweepFigures[0].roster},
		{"2d", []int{32, 32}, []string{"GOWALLA", "ADULT-2D", "SF-CABS-S", "BJ-CABS-E", "STROKE"}, []int{1e4, 1e6, 1e7}, w2, sweepFigures[1].roster},
	}
}

// tracedAlgo is a mechanism whose Plan, and the Execute of every plan it
// returns, record a span under the grid cell core runs them for.
type tracedAlgo struct {
	algo.Algorithm
	rec    *recorder
	dim    string
	parent int64
}

func (a tracedAlgo) Plan(x *vec.Vector, w *workload.Workload, eps float64) (algo.Plan, error) {
	sp := a.rec.begin("algo.plan."+a.dim, a.parent, "")
	p, err := a.Algorithm.Plan(x, w, eps)
	sp.end()
	if err != nil {
		return nil, err
	}
	return tracedPlan{Plan: p, rec: a.rec, name: "algo.execute." + a.Name() + "." + a.dim, parent: a.parent}, nil
}

type tracedPlan struct {
	algo.Plan
	rec    *recorder
	name   string
	parent int64
}

func (p tracedPlan) Execute(m *noise.Meter, out []float64) error {
	sp := p.rec.begin(p.name, p.parent, "")
	err := p.Plan.Execute(m, out)
	sp.end()
	return err
}

// sweepCount is what a grid run produced: error observations, and how
// many of them were not finite.
type sweepCount struct{ n, bad int }

// sweepGrid runs one figure's quick grid as dpbench's experiment sweep
// does: the (scale, dataset) cells fan out over core.ParallelForCtx and
// each cell is a core.RunParallel, the worker budget split between the two
// levels. With rec set, every cell is a core.cell span and its mechanisms
// are traced; with rec nil the real mechanisms run untraced.
func sweepGrid(ctx context.Context, rec *recorder, f sweepFig, base []algo.Algorithm, seed int64, workers int) (sweepCount, error) {
	cells := len(f.scales) * len(f.datasets)
	grid := min(workers, cells)
	counts := make([]sweepCount, cells)
	err := core.ParallelForCtx(ctx, grid, cells, func(c int) error {
		scale, name := f.scales[c/len(f.datasets)], f.datasets[c%len(f.datasets)]
		ds, err := dataset.ByName(name)
		if err != nil {
			return err
		}
		cell := rec.begin("core.cell", 0, "")
		defer cell.end()
		algos := base
		if rec != nil {
			algos = make([]algo.Algorithm, len(base))
			for i, a := range base {
				algos[i] = tracedAlgo{Algorithm: a, rec: rec, dim: f.dim, parent: cell.s.ID}
			}
		}
		results, err := core.RunParallel(ctx, core.Config{
			Dataset: ds, Dims: f.dims, Scale: scale, Eps: queryEps, Workload: f.w, Algorithms: algos,
			DataSamples: 2, Trials: 3, Seed: seed + int64(scale), Parallelism: workers / grid,
		}, 0)
		if err != nil {
			return err
		}
		for _, r := range results {
			for _, e := range r.Errors {
				counts[c].n++
				if math.IsNaN(e) || math.IsInf(e, 0) {
					counts[c].bad++
				}
			}
		}
		return nil
	})
	var total sweepCount
	for _, c := range counts {
		total.n += c.n
		total.bad += c.bad
	}
	return total, err
}

func traceSweep(ctx context.Context, t *tracer, full bool) (phase, error) {
	var p phase
	figs := sweepFigs(full, t.cfg.seed)
	bases := make([][]algo.Algorithm, len(figs))
	for i, f := range figs {
		for _, name := range f.roster {
			a, err := algo.New(name)
			if err != nil {
				return p, err
			}
			bases[i] = append(bases[i], a)
		}
	}
	workers := runtime.NumCPU()
	grids := func(rec *recorder) (sweepCount, time.Duration, error) {
		var total sweepCount
		start := time.Now()
		for i, f := range figs {
			n, err := sweepGrid(ctx, rec, f, bases[i], t.cfg.seed, workers)
			if err != nil {
				return total, 0, err
			}
			total.n += n.n
			total.bad += n.bad
		}
		return total, time.Since(start), nil
	}
	// Two untraced passes fill the mechanisms' plan caches and let the heap
	// settle (the first pass runs about 50% slower). Then traced and
	// untraced passes alternate, so host drift falls on both alike; the
	// overhead compares their total walls. Single passes differ by about 10%
	// on the 2-core reference host, more than tracing costs.
	passes := 1
	if full {
		passes = 3
		for k := 0; k < 2; k++ {
			if _, _, err := grids(nil); err != nil {
				return p, err
			}
		}
	}
	var trials sweepCount
	var wall, untraced time.Duration
	from := t.rec.since()
	for k := 0; k < passes; k++ {
		n, w, err := grids(t.rec)
		if err != nil {
			return p, err
		}
		trials.n += n.n
		trials.bad += n.bad
		wall += w
		if full {
			_, w, err := grids(nil)
			if err != nil {
				return p, err
			}
			untraced += w
		}
	}
	ss := t.rec.between(from, t.rec.since())
	t.res.check(trials.bad == 0, "sweep: %d trial errors are not finite", trials.bad)
	t.res.Attempted += trials.n

	var layerTime time.Duration
	for _, s := range ss {
		if s.Parent != 0 {
			layerTime += s.dur()
		}
	}
	t.res.set("core.trials", "count", float64(trials.n))
	t.res.set("core.busy_share", "share", float64(layerTime)/(float64(wall)*float64(workers)))
	for _, f := range figs {
		t.res.set("algo.plan_ms."+f.dim, "ms", mean(named(ss, "algo.plan."+f.dim)))
		for _, m := range f.roster {
			t.res.set("algo.execute_ms."+metricName(m)+"."+f.dim, "ms", mean(named(ss, "algo.execute."+m+"."+f.dim)))
		}
		if err := executeAllocs(t, f); err != nil {
			return p, err
		}
	}
	if err := dataWorkloadMs(t, figs); err != nil {
		return p, err
	}
	p.covered = coveredShare(ss, wall, min(workers, len(figs[0].scales)*len(figs[0].datasets)))
	if full {
		p.overhead = float64(wall)/float64(untraced) - 1
	}
	return p, nil
}

// dataWorkloadMs times, serially over every (scale, dataset) cell of the
// figures, the dataset and workload calls core makes for each sample:
// Dataset.Generate, Workload.Evaluate for the true answers, and
// Evaluator.Reset plus AnswerAll over one estimate. core makes them inside
// RunParallel, out of reach of a span, so they are timed here on the same
// inputs.
func dataWorkloadMs(t *tracer, figs []sweepFig) error {
	from := t.rec.since()
	for _, f := range figs {
		ev := workload.NewEvaluator(f.w)
		ans := make([]float64, f.w.Size())
		for _, scale := range f.scales {
			for _, name := range f.datasets {
				ds, err := dataset.ByName(name)
				if err != nil {
					return err
				}
				sp := t.rec.begin("dataset.generate", 0, "")
				x, err := ds.Generate(noise.NewRand(uint64(mixSeed(t.cfg.seed, int64(scale)))), scale, f.dims...)
				sp.end()
				if err != nil {
					return err
				}
				sp = t.rec.begin("workload.truth", 0, "")
				_, err = f.w.Evaluate(x)
				sp.end()
				if err != nil {
					return err
				}
				sp = t.rec.begin("workload.answer", 0, "")
				ev.Reset(x.Data)
				ev.AnswerAll(ans)
				sp.end()
			}
		}
	}
	ss := t.rec.between(from, t.rec.since())
	t.res.set("dataset.generate_ms", "ms", mean(named(ss, "dataset.generate")))
	t.res.set("workload.truth_ms", "ms", mean(named(ss, "workload.truth")))
	t.res.set("workload.answer_ms", "ms", mean(named(ss, "workload.answer")))
	return nil
}

// executeAllocs measures heap allocations per Execute for every mechanism
// of the figure, serially, on the figure's first dataset at its middle
// scale. Meters are made before counting.
func executeAllocs(t *tracer, f sweepFig) error {
	const reps = 4
	ds, err := dataset.ByName(f.datasets[0])
	if err != nil {
		return err
	}
	x, err := ds.Generate(noise.NewRand(uint64(t.cfg.seed)), f.scales[len(f.scales)/2], f.dims...)
	if err != nil {
		return err
	}
	est := make([]float64, x.N())
	for _, name := range f.roster {
		a, err := algo.New(name)
		if err != nil {
			return err
		}
		p, err := a.Plan(x, f.w, queryEps)
		if err != nil {
			return err
		}
		meters := make([]*noise.Meter, reps)
		for i := range meters {
			meters[i] = noise.NewMeterV(queryEps, noise.NewRand(uint64(i+1)), noise.SamplerLegacy)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, m := range meters {
			if err := p.Execute(m, est); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&m1)
		t.res.set("algo.execute_allocs."+metricName(name)+"."+f.dim, "allocs", float64(m1.Mallocs-m0.Mallocs)/reps)
	}
	return nil
}

// ---- serve and noise: the in-memory query path ----

// tracedHandler records a serve.handler span around every request.
type tracedHandler struct {
	rec  *recorder
	next http.Handler
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sp := h.rec.begin("serve.handler", 0, r.Header.Get("X-Request-Id"))
	h.next.ServeHTTP(w, r)
	sp.end()
}

// listen serves h on a loopback port until the returned stop is called;
// stop returns once the server goroutine has exited.
func listen(h http.Handler) (string, func(), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(l)
	}()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-done
	}
	return "http://" + l.Addr().String(), stop, nil
}

// closedPair runs the closed loop for d untraced, then for d traced, and
// returns the traced samples, their spans and the throughput ratio
// untraced/traced - 1.
func closedPair(ctx context.Context, t *tracer, g *loadgen, d time.Duration, next func(int) call) ([]sample, []span, float64) {
	t.rec.on.Store(false)
	s0 := g.closedLoop(ctx, d, next)
	t.rec.on.Store(true)
	from := t.rec.since()
	s1 := g.closedLoop(ctx, d, next)
	return s1, t.rec.between(from, t.rec.since()), float64(len(s0))/float64(len(s1)) - 1
}

func traceServe(ctx context.Context, t *tracer, full bool) (phase, error) {
	var p phase
	spec := mixedSpec
	d, reps := 400*time.Millisecond, 5
	if full {
		d, reps = 2*time.Second, 50
	}
	srv, err := serve.New(serveConfig(spec))
	if err != nil {
		return p, err
	}
	defer srv.Close()
	base, stop, err := listen(tracedHandler{t.rec, srv.Handler()})
	if err != nil {
		return p, err
	}
	defer stop()
	l := &serveLoad{reqs: makeQueries(rand.New(rand.NewSource(t.cfg.seed)), spec.cells, 8192)}
	nOpen := int(spec.openRate * d.Seconds())
	for i := 0; i < nOpen; i++ {
		l.open = append(l.open, timed{at: time.Duration(float64(i) / spec.openRate * float64(time.Second)), c: call{body: l.reqs[i].body, req: i}})
	}
	g := newLoadgen(base, runtime.NumCPU())
	defer g.close()
	open := g.openLoop(ctx, l.open)
	closed, ss, overhead := closedPair(ctx, t, g, d, func(i int) call {
		r := (nOpen + i) % len(l.reqs)
		return call{body: l.reqs[r].body, req: r}
	})
	checkServeSamples(l, append(open, closed...), t.res)

	handlerUs := mean(named(ss, "serve.handler")) * 1e3
	var client []float64
	for _, s := range closed {
		client = append(client, float64(s.latency().Nanoseconds())/1e3)
	}
	decode, encode := decodeEncodeUs(l.reqs[:1024])
	charge := chargeUs(20000)
	exec, err := serveExecuteUs(spec, reps)
	if err != nil {
		return p, err
	}
	var execMix float64
	for _, c := range spec.cells {
		name := c.mech + "." + c.dim()
		t.res.set("serve.execute_us."+name, "us", exec[name])
		execMix += exec[name] / float64(len(spec.cells))
	}
	t.res.set("serve.handler_us", "us", handlerUs)
	t.res.set("serve.http_us", "us", mean(client)-handlerUs)
	t.res.set("serve.decode_us", "us", decode)
	t.res.set("serve.encode_us", "us", encode)
	t.res.set("serve.charge_us", "us", charge)
	// The handler charges the key's and the dataset's accountant.
	t.res.set("serve.unaccounted_share", "share", 1-(decode+2*charge+execMix+encode)/handlerUs)
	t.res.set("loadgen.lag_p99_ms", "ms", lagP99Ms(open))
	p.covered = coveredShare(ss, d, g.conns)
	p.overhead = overhead
	return p, nil
}

// decodeEncodeUs times decoding request bodies into serve.QueryRequest (as
// the handler does, unknown fields refused) and encoding a QueryResponse
// with one answer per query, in microseconds per call.
func decodeEncodeUs(reqs []queryReq) (float64, float64) {
	t0 := time.Now()
	for _, r := range reqs {
		var q serve.QueryRequest
		dec := json.NewDecoder(bytes.NewReader(r.body))
		dec.DisallowUnknownFields()
		if dec.Decode(&q) != nil {
			return math.NaN(), math.NaN()
		}
	}
	decode := float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(reqs))
	resp := serve.QueryResponse{Dataset: "GOWALLA", Mechanism: "HYBRIDTREE", Epsilon: queryEps, Spent: 12.3, Remaining: 999987.7, Seq: 1234567}
	for i := 0; i < queriesPerCall; i++ {
		resp.Answers = append(resp.Answers, 1234.5678901234*float64(i+1))
	}
	t0 = time.Now()
	for range reqs {
		if json.NewEncoder(io.Discard).Encode(resp) != nil {
			return math.NaN(), math.NaN()
		}
	}
	return decode, float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(reqs))
}

// chargeUs times noise.Accountant.Spend, in microseconds per charge, on an
// accountant that keeps running totals only, as the server's do without
// -audit.
func chargeUs(n int) float64 {
	a, err := noise.NewAccountant(1e9)
	if err != nil {
		return math.NaN()
	}
	a.SetRetainHistory(false)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if a.Spend("query ADULT/HB", queryEps) != nil {
			return math.NaN()
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)
}

// serveExecuteUs plans every cell of spec the way serve.New does (same
// data seed, domain and planning workload) and times Plan.Execute, in
// microseconds, keyed "MECH.1d" or "MECH.2d".
func serveExecuteUs(spec serveSpec, reps int) (map[string]float64, error) {
	cfg := serveConfig(spec)
	out := map[string]float64{}
	for _, c := range spec.cells {
		di := 0
		for i, name := range cfg.Datasets {
			if name == c.dataset {
				di = i
			}
		}
		ds, err := dataset.ByName(c.dataset)
		if err != nil {
			return nil, err
		}
		x, err := ds.Generate(rand.New(rand.NewSource(cfg.Seed+int64(di))), 100_000, c.dims...)
		if err != nil {
			return nil, err
		}
		var w *workload.Workload
		if len(c.dims) == 1 {
			w = workload.Prefix(c.dims[0])
		} else {
			w = workload.RandomRange2D(c.dims[1], c.dims[0], 512, rand.New(rand.NewSource(cfg.Seed)))
		}
		a, err := algo.New(c.mech)
		if err != nil {
			return nil, err
		}
		p, err := a.Plan(x, w, queryEps)
		if err != nil {
			return nil, err
		}
		est := make([]float64, x.N())
		meters := make([]*noise.Meter, reps)
		for i := range meters {
			meters[i] = noise.NewMeterV(queryEps, noise.NewRand(uint64(i+1)), noise.SamplerLegacy)
		}
		t0 := time.Now()
		for _, m := range meters {
			if err := p.Execute(m, est); err != nil {
				return nil, err
			}
		}
		out[c.mech+"."+c.dim()] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(reps)
	}
	return out, nil
}

// ---- ledger: the durable query path ----

// timedStore wraps the WAL handed to the server as Config.LedgerStore and
// records a ledger.append span, with its batch size, around every Append.
type timedStore struct {
	ledger.Store
	rec              *recorder
	appends, records atomic.Int64
}

func (s *timedStore) Append(batch []ledger.Record) (uint64, error) {
	sp := s.rec.begin("ledger.append", 0, "")
	seq, err := s.Store.Append(batch)
	recording := sp.r != nil
	sp.end()
	if recording {
		s.appends.Add(1)
		s.records.Add(int64(len(batch)))
	}
	return seq, err
}

// The ledger probe recovers a pre-populated WAL of ledgerRecords spends
// over ledgerSpec's cells, serves spends through it for ledgerLoad, and
// drives a group-commit Batcher for ledgerSubmit.
var ledgerSpec = serveSpec{cells: []cellSpec{{"ADULT", "IDENTITY", adult}, {"ADULT", "HB", adult}}}

const (
	ledgerRecords = 100_000
	ledgerLoad    = 500 * time.Millisecond
	ledgerSubmit  = 200 * time.Millisecond
)

// walRecord is what the benchmark remembers of each pre-populated record,
// enough to rebuild its canonical encoding for proof checks.
type walRecord struct {
	key  uint16
	cell uint8
}

// prepopulateWAL writes n committed spends over numKeys keys and the spec's
// cells to path, from the workload seed.
func prepopulateWAL(path string, rng *rand.Rand, spec serveSpec, n int) ([]walRecord, error) {
	w, err := ledger.OpenWAL(path)
	if err != nil {
		return nil, err
	}
	recs := make([]walRecord, n)
	batch := make([]ledger.Record, 0, 8192)
	for i := range recs {
		recs[i] = walRecord{key: uint16(rng.Intn(numKeys)), cell: uint8(rng.Intn(len(spec.cells)))}
		c := spec.cells[recs[i].cell]
		batch = append(batch, ledger.Record{Key: keyName(int(recs[i].key)), Dataset: c.dataset, Mechanism: c.mech, Eps: queryEps})
		if len(batch) == cap(batch) || i == n-1 {
			if _, err := w.Append(batch); err != nil {
				w.Close()
				return nil, fmt.Errorf("pre-populating ledger: %w", err)
			}
			batch = batch[:0]
		}
	}
	return recs, w.Close()
}

// verifyProofAt fetches /v1/proof for rec's seq and checks the reply
// against the re-encoded record with ledger.VerifyInclusion, offline.
func verifyProofAt(ctx context.Context, g *loadgen, rec ledger.Record, res *result) {
	var s sample
	g.do(ctx, call{get: "/v1/proof?seq=" + strconv.FormatUint(rec.Seq, 10), req: -1}, &s)
	var pr serve.ProofResponse
	err := json.Unmarshal(s.body, &pr)
	p := ledger.Proof{Index: rec.Seq - 1, Size: pr.Size, LeafHash: ledger.LeafHash(ledger.EncodeRecord(rec))}
	good := err == nil && pr.Seq == rec.Seq && decodeHash(pr.Leaf) == p.LeafHash
	for _, h := range pr.Path {
		p.Path = append(p.Path, decodeHash(h))
	}
	p.Root = decodeHash(pr.Root)
	res.check(s.err == nil && s.status == 200 && good && ledger.VerifyInclusion(p), "proof for seq %d does not verify: %s", rec.Seq, s.body)
}

func decodeHash(s string) ledger.Hash {
	var h ledger.Hash
	b, err := hex.DecodeString(s)
	if err == nil && len(b) == len(h) {
		copy(h[:], b)
	}
	return h
}

func traceLedger(ctx context.Context, t *tracer) error {
	const n = ledgerRecords
	rng := rand.New(rand.NewSource(t.cfg.seed))
	path := filepath.Join(t.e.tmp, "trace-ledger.wal")
	recs, err := prepopulateWAL(path, rng, ledgerSpec, n)
	if err != nil {
		return err
	}

	sp := t.rec.begin("ledger.recover", 0, "")
	w, err := ledger.OpenWAL(path)
	recovered := sp.end()
	if err != nil {
		return err
	}
	var leaves []byte
	ends := make([]int, 0, n)
	sp = t.rec.begin("ledger.replay", 0, "")
	err = w.Replay(func(r ledger.Record) error {
		leaves = ledger.AppendRecord(leaves, r)
		ends = append(ends, len(leaves))
		return nil
	})
	replay := sp.end()
	if err != nil {
		w.Close()
		return err
	}
	var tree ledger.Tree
	sp = t.rec.begin("ledger.merkle_rebuild", 0, "")
	prev := 0
	for _, end := range ends {
		tree.Append(leaves[prev:end])
		prev = end
	}
	rebuild := sp.end()
	var prove []float64
	for k := 0; k < 5; k++ {
		sp := t.rec.begin("ledger.prove", 0, "")
		pr, err := tree.Prove(uint64(rng.Intn(n)))
		prove = append(prove, float64(sp.end().Nanoseconds())/1e6)
		t.res.check(err == nil && ledger.VerifyInclusion(pr), "ledger: rebuilt tree proof does not verify: %v", err)
	}
	t.res.check(len(ends) == n, "ledger: replayed %d records, want %d", len(ends), n)

	store := &timedStore{Store: w, rec: t.rec}
	cfg := serveConfig(ledgerSpec)
	cfg.LedgerStore = store
	srv, err := serve.New(cfg)
	if err != nil {
		w.Close()
		return err
	}
	defer srv.Close()
	base, stop, err := listen(tracedHandler{t.rec, srv.Handler()})
	if err != nil {
		return err
	}
	defer stop()
	l := &serveLoad{reqs: makeQueries(rng, ledgerSpec.cells, closedPool)}
	g := newLoadgen(base, runtime.NumCPU())
	defer g.close()
	from := t.rec.since()
	closed := g.closedLoop(ctx, ledgerLoad, l.closedCalls(0))
	appendMs := named(t.rec.between(from, t.rec.since()), "ledger.append")
	ok := checkServeSamples(l, closed, t.res)

	var root sample
	g.do(ctx, call{get: "/v1/root", req: -1}, &root)
	var rr serve.RootResponse
	jerr := json.Unmarshal(root.body, &rr)
	t.res.check(jerr == nil && rr.Size == uint64(n+len(ok)), "ledger: /v1/root size %d, want %d recovered + %d committed", rr.Size, n, len(ok))
	// Proofs of recovered records and of spends committed during the load
	// must verify offline against the re-encoded records.
	for k := 0; k < 4; k++ {
		seq := 1 + rng.Intn(n)
		c := ledgerSpec.cells[recs[seq-1].cell]
		verifyProofAt(ctx, g, ledger.Record{Seq: uint64(seq), Key: keyName(int(recs[seq-1].key)), Dataset: c.dataset, Mechanism: c.mech, Eps: queryEps}, t.res)
	}
	for i := 0; i < len(ok); i += 1 + len(ok)/4 {
		q := l.reqs[ok[i].req]
		c := ledgerSpec.cells[q.cell]
		verifyProofAt(ctx, g, ledger.Record{Seq: ok[i].seq, Key: keyName(q.key), Dataset: c.dataset, Mechanism: c.mech, Eps: queryEps}, t.res)
	}

	wait, err := commitWaitMs(ctx, t, ledgerSubmit)
	if err != nil {
		return err
	}
	t.res.set("ledger.recover_s", "s", recovered.Seconds())
	t.res.set("ledger.replay_s", "s", replay.Seconds())
	t.res.set("ledger.merkle_rebuild_s", "s", rebuild.Seconds())
	t.res.set("ledger.prove_ms", "ms", quantile(prove, 0.5))
	t.res.set("ledger.appends", "count", float64(store.appends.Load()))
	t.res.set("ledger.records_per_append", "count", float64(store.records.Load())/float64(max(store.appends.Load(), 1)))
	t.res.set("ledger.append_ms_p50", "ms", quantile(appendMs, 0.5))
	t.res.set("ledger.append_ms_p99", "ms", quantile(appendMs, 0.99))
	t.res.set("ledger.commit_wait_ms_p99", "ms", quantile(wait, 0.99))
	return nil
}

// commitWaitMs drives a group-commit Batcher over a fresh WAL from nproc
// closed-loop submitters for d and returns each Submit's wait, in ms. The
// batch bound matches the server's.
func commitWaitMs(ctx context.Context, t *tracer, d time.Duration) ([]float64, error) {
	const serveMaxBatch = 128
	w, err := ledger.OpenWAL(filepath.Join(t.e.tmp, "trace-commit.wal"))
	if err != nil {
		return nil, err
	}
	b := ledger.NewBatcher(w, serveMaxBatch, nil)
	var mu sync.Mutex
	var waits []float64
	var firstErr error
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for k := 0; k < runtime.NumCPU(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) && ctx.Err() == nil {
				sp := t.rec.begin("ledger.submit", 0, "")
				_, err := b.Submit(ledger.Record{Key: keyName(k), Dataset: "ADULT", Mechanism: "HB", Eps: queryEps})
				ms := float64(sp.end().Nanoseconds()) / 1e6
				mu.Lock()
				waits = append(waits, ms)
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	b.Close()
	return waits, errors.Join(firstErr, w.Close())
}

// ---- analysis: the lint ----

// lintAnalyzers is dpbench-lint's roster, in its order.
var lintAnalyzers = []*analysis.Analyzer{
	noisegate.Analyzer,
	budgetlabel.Analyzer,
	subclose.Analyzer,
	determinism.Analyzer,
	internalboundary.Analyzer,
	privtaint.Analyzer,
	allocfree.Analyzer,
	epsflow.Analyzer,
}

// analyze runs analyzers over pkgs and counts findings and type errors.
func analyze(pkgs []*load.Package, analyzers []*analysis.Analyzer) (int, error) {
	findings := 0
	for _, pkg := range pkgs {
		if len(pkg.TypeErrs) > 0 {
			return 0, fmt.Errorf("%s: %v", pkg.Meta.ImportPath, pkg.TypeErrs[0])
		}
		f, err := driver.Analyze(pkg, analyzers)
		if err != nil {
			return 0, err
		}
		for _, x := range f {
			fmt.Fprintln(os.Stderr, x)
		}
		findings += len(f)
	}
	return findings, nil
}

// lintProbe is the package the traced run lints: a lint of one small
// package is almost all fixed cost (go list, export data, type checking of
// its imports), so every analyzer runs at little cost.
const lintProbe = "./internal/vec"

func traceLint(ctx context.Context, t *tracer) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sp := t.rec.begin("lint.load", 0, "")
	pkgs, err := load.Load(t.e.root, lintProbe)
	t.res.set("lint.load_s", "s", sp.end().Seconds())
	if err != nil {
		return err
	}
	findings := 0
	for _, a := range lintAnalyzers {
		sp := t.rec.begin("lint."+a.Name, 0, "")
		n, err := analyze(pkgs, []*analysis.Analyzer{a})
		t.res.set("lint."+a.Name+"_s", "s", sp.end().Seconds())
		if err != nil {
			return err
		}
		findings += n
	}
	t.res.check(findings == 0, "lint: %d findings", findings)
	t.res.set("lint.packages", "count", float64(len(pkgs)))
	t.res.set("lint.findings", "count", float64(findings))
	return nil
}
