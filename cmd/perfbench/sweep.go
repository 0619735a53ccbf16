package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// goldenSeed is dpbench's default seed; the sweep tables at this seed are
// committed under testdata and must come back byte for byte.
const goldenSeed = 20160626

// figure is one experiment of the sweep, as dpbench runs it.
type figure struct {
	name   string
	args   []string
	roster []string
	// trials is the number of (sample, trial, mechanism) cells the quick
	// grid runs: mechanisms x datasets x scales x 2 samples x 3 trials.
	trials int
}

var sweepFigures = []figure{
	{
		name:   "fig1a",
		args:   []string{"-experiment", "fig1a", "-n", "4096"},
		roster: []string{"IDENTITY", "HB", "MWEM*", "DAWA", "PHP", "MWEM", "EFPA", "DPCUBE", "AHP*", "SF", "UNIFORM"},
		trials: 11 * 6 * 3 * 2 * 3,
	},
	{
		name:   "fig1b",
		args:   []string{"-experiment", "fig1b"},
		roster: []string{"IDENTITY", "HB", "AGRID", "MWEM", "MWEM*", "DAWA", "QUADTREE", "UGRID", "DPCUBE", "AHP", "UNIFORM"},
		trials: 11 * 5 * 3 * 2 * 3,
	},
}

// runSweep runs whole sweeps (Figure 1a then Figure 1b, each a fresh
// dpbench process) back to back until the measured time is used up. The
// first sweep runs at the golden seed and is compared byte for byte; the
// rest run at seeds derived from the workload seed and are checked for
// completeness.
func runSweep(ctx context.Context, e *env, cfg config, res *result) error {
	workers := strconv.Itoa(runtime.NumCPU())
	var sweepMs, rates, setup []float64
	rss := make([][]float64, len(sweepFigures))
	begin := time.Now()
	for i := 0; i < 2 || time.Since(begin).Seconds() < cfg.seconds; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		seed := int64(goldenSeed)
		if i > 0 {
			seed = mixSeed(cfg.seed, int64(i))
		}
		t0 := time.Now()
		trials := 0
		for fi, f := range sweepFigures {
			args := append(append([]string{}, f.args...), "-workers", workers, "-seed", strconv.FormatInt(seed, 10))
			c, err := e.spawn(ctx, true, "dpbench", args...)
			if err != nil {
				return err
			}
			if err := c.wait(); err != nil {
				return fmt.Errorf("dpbench %s: %w", strings.Join(args, " "), err)
			}
			select {
			case t := <-c.first:
				setup = append(setup, t.Sub(c.start).Seconds())
			default:
			}
			rss[fi] = append(rss[fi], c.maxRSSMB())
			res.Attempted++
			trials += f.trials
			if i == 0 {
				checkGolden(e, f, c.lines, res)
			} else {
				checkTable(f, c.lines, res)
			}
		}
		sweepMs = append(sweepMs, float64(time.Since(t0).Nanoseconds())/1e6)
		rates = append(rates, float64(trials)/time.Since(t0).Seconds())
	}
	// Each figure's typical peak: its processes' median, then the larger
	// figure's; the maximum over processes moves with GC timing.
	peak := 0.0
	for _, r := range rss {
		peak = math.Max(peak, quantile(r, 0.5))
	}
	fmt.Fprintf(os.Stderr, "perfbench: sweep: %d sweeps in %.2fs, p99 %.1f ms\n", len(sweepMs), time.Since(begin).Seconds(), quantile(sweepMs, 0.99))
	res.set("setup_s", "s", quantile(setup, 0.5))
	res.set("op_p50_ms", "ms", quantile(sweepMs, 0.5))
	res.set("throughput_per_s", "1/s", quantile(rates, 0.5))
	res.set("peak_rss_mb", "MB", peak)
	return nil
}

// mixSeed derives the i-th input seed from the workload seed (SplitMix64),
// kept positive for dpbench's -seed flag.
func mixSeed(seed, i int64) int64 {
	z := uint64(seed) + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

var timingLine = regexp.MustCompile(`^\(.* completed in .*\)$`)

// stripTiming drops dpbench's "(fig1a completed in 213ms)" lines.
func stripTiming(lines []string) string {
	var b strings.Builder
	for _, l := range lines {
		if !timingLine.MatchString(l) {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func checkGolden(e *env, f figure, lines []string, res *result) {
	path := filepath.Join(e.root, "cmd", "perfbench", "testdata", f.name+".golden")
	want, err := os.ReadFile(path)
	got := stripTiming(lines)
	res.check(err == nil && got == string(want), "%s at seed %d differs from %s (read error: %v)", f.name, goldenSeed, path, err)
}

// cellRe matches one scale's "mean [ min, max]" triple of a table row.
var cellRe = regexp.MustCompile(`(\S+)\s+\[\s*(\S+),\s*(\S+)\]`)

// checkTable verifies that every mechanism row of the figure is present
// with one finite mean/min/max triple per scale.
func checkTable(f figure, lines []string, res *result) {
	rows := map[string]string{}
	for _, l := range lines {
		if name, rest, ok := strings.Cut(l, " "); ok {
			rows[name] = rest
		}
	}
	for _, mech := range f.roster {
		row, ok := rows[mech]
		cells := cellRe.FindAllStringSubmatch(row, -1)
		finite := ok && len(cells) == 3
		for _, c := range cells {
			for _, s := range c[1:] {
				v, err := strconv.ParseFloat(s, 64)
				finite = finite && err == nil && !math.IsNaN(v) && !math.IsInf(v, 0)
			}
		}
		res.check(finite, "%s row %s is missing or not finite: %q", f.name, mech, row)
	}
}
