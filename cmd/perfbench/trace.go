package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Parent is the enclosing span's ID (0
// at the root); Req ties the spans of one served request together.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the span name's first dotted element, the module it times.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, which is how the untraced comparison runs; a
// recorder with on cleared does the same for code that holds one.
type recorder struct {
	t0    time.Time
	ids   atomic.Int64
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.on.Store(true)
	return r
}

// open is a span in progress.
type open struct {
	r *recorder
	s span
}

// begin starts a span under parent (0 for a root span).
func (r *recorder) begin(name string, parent int64, req string) open {
	if r == nil || !r.on.Load() {
		return open{}
	}
	return open{r: r, s: span{ID: r.ids.Add(1), Parent: parent, Name: name, Req: req, Start: int64(time.Since(r.t0))}}
}

// end closes the span and returns its duration (0 when not recording).
func (o open) end() time.Duration {
	if o.r == nil {
		return 0
	}
	o.s.End = int64(time.Since(o.r.t0))
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
	return o.s.dur()
}

// between returns the spans that started in [from, to) of recorder time.
func (r *recorder) between(from, to time.Duration) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Start >= int64(from) && s.Start < int64(to) {
			out = append(out, s)
		}
	}
	return out
}

func (r *recorder) since() time.Duration { return time.Since(r.t0) }

// named returns the durations, in ms, of the spans called name.
func named(ss []span, name string) []float64 {
	var out []float64
	for _, s := range ss {
		if s.Name == name {
			out = append(out, float64(s.dur().Nanoseconds())/1e6)
		}
	}
	return out
}

// coveredShare is the share of wall x concurrency that root spans cover.
func coveredShare(ss []span, wall time.Duration, concurrency int) float64 {
	var sum time.Duration
	for _, s := range ss {
		if s.Parent == 0 {
			sum += s.dur()
		}
	}
	return float64(sum) / (float64(wall) * float64(concurrency))
}

// selfTimes sums each layer's self time: a span's duration minus the part
// of it that its child spans cover.
func selfTimes(ss []span) map[string]time.Duration {
	kids := map[int64][]span{}
	for _, s := range ss {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range ss {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.layer()] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// writeTrace writes every span and the per-layer self times to a file under
// .bench_build/perfbench and returns its path.
func writeTrace(e *env, cfg config, r *recorder) (string, map[string]time.Duration, error) {
	r.mu.Lock()
	ss := append([]span(nil), r.spans...)
	r.mu.Unlock()
	self := selfTimes(ss)
	selfMs := map[string]float64{}
	for l, d := range self {
		selfMs[l] = float64(d.Nanoseconds()) / 1e6
	}
	dir := filepath.Join(e.root, ".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	b, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfMs   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{cfg.workload, cfg.seed, selfMs, ss})
	if err != nil {
		return "", nil, err
	}
	return path, self, os.WriteFile(path, b, 0o644)
}
