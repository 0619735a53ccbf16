package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// call is one HTTP request of a load schedule.
type call struct {
	get  string // GET path; empty for the query POST
	body []byte // POST /v1/query body
	req  int    // index of the query in the workload's request table, or -1
}

// sample is one completed call. Latency runs from due (the scheduled send
// time in an open loop, the actual send in a closed loop) to done.
type sample struct {
	call            call
	due, sent, done time.Time
	status          int
	body            []byte
	err             error
}

func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// loadgen is the single load-generating client: at most conns connections
// to one server, shared by every phase and request kind.
type loadgen struct {
	client *http.Client
	base   string
	conns  int
	nextID atomic.Int64
}

func newLoadgen(base string, conns int) *loadgen {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &loadgen{client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base, conns: conns}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// do sends c and fills s.sent, s.done, s.status and s.body. Each request
// carries a fresh X-Request-Id so traced servers can tie spans to it.
func (g *loadgen) do(ctx context.Context, c call, s *sample) {
	s.call = c
	var req *http.Request
	if c.get != "" {
		req, s.err = http.NewRequestWithContext(ctx, http.MethodGet, g.base+c.get, nil)
	} else {
		req, s.err = http.NewRequestWithContext(ctx, http.MethodPost, g.base+"/v1/query", bytes.NewReader(c.body))
	}
	if s.err != nil {
		return
	}
	req.Header.Set("X-Request-Id", strconv.FormatInt(g.nextID.Add(1), 10))
	s.sent = time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		s.err, s.done = err, time.Now()
		return
	}
	s.body, s.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	s.status = resp.StatusCode
}

// timed is a call with its due offset from the start of an open loop.
type timed struct {
	at time.Duration
	c  call
}

// openLoop sends every call of sched at its due time, whatever the server's
// state, through the conns connections. A call waiting for a free
// connection is late; its latency still runs from its due time.
func (g *loadgen) openLoop(ctx context.Context, sched []timed) []sample {
	out := make([]sample, len(sched))
	due := make(chan int, len(sched)) // holds the whole schedule, so the pacer never blocks
	var wg sync.WaitGroup
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				g.do(ctx, sched[i].c, &out[i])
			}
		}()
	}
	start := time.Now()
	for i, t := range sched {
		out[i].due = start.Add(t.at)
		if d := time.Until(out[i].due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		due <- i
	}
	close(due)
	wg.Wait()
	return out
}

// closedLoop runs conns clients for dur; each sends its next call as soon
// as the previous one returns. next(i) gives the i-th call overall.
func (g *loadgen) closedLoop(ctx context.Context, dur time.Duration, next func(i int) call) []sample {
	var mu sync.Mutex
	var out []sample
	var n atomic.Int64
	end := time.Now().Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(end) && ctx.Err() == nil {
				var s sample
				s.due = time.Now()
				g.do(ctx, next(int(n.Add(1)-1)), &s)
				mine = append(mine, s)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// lagP99Ms is how late the open-loop generator sent, at the 99th percentile.
func lagP99Ms(ss []sample) float64 {
	lag := make([]float64, 0, len(ss))
	for _, s := range ss {
		if !s.sent.IsZero() {
			lag = append(lag, float64(s.sent.Sub(s.due).Nanoseconds())/1e6)
		}
	}
	return quantile(lag, 0.99)
}
