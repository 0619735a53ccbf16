// Command perfbench is dpbench's benchmark: it measures two whole paths a
// user runs (an experiment sweep and a served query with in-memory
// accounting) from outside, as child processes, and splits each path into
// its layers in a separate traced run, which also probes the layers of the
// durable ledger and of the lint.
//
// Run it from the root of a checkout:
//
//	bash cmd/perfbench/run.sh --workload sweep --seed 7 --seconds 10 --trace 0
//
// run.sh builds dpbench and perfbench from the checkout's
// sources into .bench_build/ (with the Go build cache there too) and runs
// perfbench. Perfbench is a module of its own, so `go build ./...`, `go
// test ./...` and `dpbench-lint ./...` at the root do not include it. The
// last line of standard output is one JSON object: correct, attempted,
// failed and metrics, each metric a value and a unit. The line before it
// describes the host: CPU model, nproc, GOMAXPROCS, Go version and a fixed
// arithmetic calibration loop, so results from different CPUs compare
// without hand normalization.
//
// # Workloads
//
// Each workload takes the workload seed; the programs receive only the
// inputs generated from it.
//
// sweep: Figures 1a and 1b of the paper, as `dpbench -experiment fig1a|fig1b
// -workers nproc` runs them with the legacy sampler: 11 mechanisms x 6
// datasets x 3 scales on Prefix at domain 4096 (the paper's 1D domain, the
// quick grid's datasets, samples and trials), then 11 mechanisms x 5
// datasets x 3 scales on 200 random rectangles over 32x32. One sweep (both
// figures, 2178 trials) takes about 1 s on the 2-core reference box; the
// quick grid at domain 512 takes 0.43 s and the full grid 17.1 s + 42.8 s,
// too long for a run. Sweeps repeat until the measured time is used up. The
// first runs at dpbench's default seed and must reproduce testdata/*.golden
// byte for byte (timing lines stripped); the rest run at seeds derived from
// the workload seed and must print every cell, finite. Why: this is the
// experimenter's path. Plan, Execute and the evaluation of the 22
// (mechanism, dims) pairs do almost all the work; serve, the ledger and the
// analyzers do none.
//
// serve_mixed: `dpbench serve` with in-memory accounting over ADULT (1D,
// 1024) x {IDENTITY, HB, DAWA} and GOWALLA (2D, 64x64) x {HB, DAWA, AGRID,
// DPCUBE, HYBRIDTREE} at eps 0.1. Requests carry 8 seeded random ranges or
// rectangles each, spread uniformly over the cells and over 1000 keys whose
// budgets no run can exhaust. After a 1 s closed-loop warm-up, the run
// alternates fifteen rounds of a serial segment (two thirds of the round:
// one client that sends its next request when the reply is in) and a
// closed-loop segment of nproc clients (one third). The generator is this
// one process with at most nproc requests in flight and GOMAXPROCS 1. Why:
// per-request Plan.Execute dominates the server's work and its cost varies
// about 10x across cells (HYBRIDTREE about 470 req/s closed-loop, DPCUBE
// 390, AGRID 3.3k, HB-2D 2.7k). HYBRIDTREE runs in no other workload. The
// ledger is bypassed.
//
// While a run measures, one `perfbench --spin` child per vCPU loops at
// SCHED_IDLE, pinned to its vCPU; any other thread preempts it at once.
// Without them the vCPUs of a virtual machine halt whenever they have
// nothing to run, as between a served request's hops (client, server,
// client), and waking a halted vCPU goes through the host's scheduler,
// whose delay grows with the host's load. On the 2-vCPU reference VM the
// guest's steal time, which counts those waits, read 11-27% of busy vCPU
// time in serve_mixed runs while sweeps a minute apart read about 1%;
// queries then took about 50% longer and closed-loop capacity fell by
// half. With the spinners, steal read 0.4-2.6% in 22 of 25 serve_mixed
// runs and 5.8-7.4% in the other three, minutes in which sweeps read up to
// 6.8% as well: what is left is the host's own load, which moves both
// workloads alike. Sweeps without spinners read 0.5-13.6%. Each run prints
// its steal share on stderr.
//
// Latency comes from the serial segments, not from an open loop. An open
// loop at 400 requests/s, each request timed from its due send time, had
// its p50 spread 70-120% of its median over ten runs on a loaded host:
// the generator's own timer wake-ups ran late by up to 8 ms at p99, a
// slower host queued requests behind one another, and the median of the
// whole mix fell on the boundary between two cells' latencies. The open
// loop and the generator's lag stay in the traced run.
//
// The durable serve path (`dpbench serve -ledger`, restarted on a
// pre-populated WAL) is not a workload. Over 5 seeds at 20 s per run, with
// a 10^6-record WAL and at most nproc connections, its closed-loop capacity
// spread 51% (quartile distance over median; 1769 to 3470 queries/s) on
// the 2-vCPU reference host, because each spend waits on a chain of
// wakeups and an fsync that the shared disk stretches by up to 2x from run
// to run. Its p50 (6%), peak RSS (7%) and set-up (13%; WAL recovery, about
// 4 s per restart against 0.02 s with no ledger) held. Its layers stay
// measured: every traced run recovers, replays, rebuilds and proves a
// 10^5-record ledger, serves spends through it and checks its root and
// proofs.
//
// The lint (standalone `dpbench-lint ./...`, the CI lint-golden command,
// with a warm build cache) is not a workload either. One lint is one
// operation of 45 to 80 s, 95% of it epsflow on ./internal/algo, so a run
// holds a single sample, and the host moves it more than any bound allows:
// over ten consecutive runs (seeds 2001-2010) it fell from 70.5 s to 46.3
// s, a quartile spread of 25% of the median, and medians of other sets on
// the same day were 39.4, 51.8 and 77 s. Twenty-two such runs would also
// take half of the time a benchmark run may use. Its layers stay measured
// on every traced run by a lint of one small package.
//
// # End-to-end metrics
//
// Every workload reports the same four metrics, each defined on its path:
//
//   - setup_s: spawn to ready, median over the run. sweep: spawn to the
//     first output line of each dpbench process. serve_mixed: spawn to the
//     first 200 from /healthz, over 15 restarts.
//   - op_p50_ms: median latency of the workload's operation. serve_mixed:
//     POST /v1/query in the serial segments, the median of each cell's
//     queries (about 2000 per cell at 45 s), averaged over the 8 cells.
//     Each cell's median first, because the cells' latencies differ up to
//     10x and the median of the uniform mix falls between the fourth and
//     fifth cheapest cell. sweep: one sweep (both figures), over the run's
//     sweeps (about 50 at 45 s). The tail is printed on stderr, not
//     reported: the serve query p99 spread 30-80% of its median over 5-10
//     runs on the 2-vCPU reference host, wider than the largest bound a
//     gate may use, and p95 was little better (50%).
//   - throughput_per_s: sweep: trials ((sample, trial, mechanism) cells) per
//     second, median over sweeps; serve_mixed: answered queries per second
//     over the fifteen closed-loop segments together.
//   - peak_rss_mb: the child's peak resident set (sweep: the median over
//     each figure's processes, the larger figure's).
//
// Failed requests, failed processes and failed output checks are counted
// in the result's failed field against attempted; failed/attempted is the
// error share, kept out of the metrics because it is 0 on a good run. The
// end-to-end output checks are the sweep tables above, one finite answer
// per range in every 200 query reply, and /v1/budget spent equal to answered
// queries x eps exactly for every key. The traced run adds finite errors
// for every sweep trial, zero findings from each analyzer on the lint
// probe, and, on the ledger probe, /v1/root size equal to recovered +
// committed records and sampled /v1/proof replies, of recovered and of
// newly committed records, verifying offline with ledger.VerifyInclusion
// against the re-encoded record.
//
// # Per-layer metrics
//
// With --trace 1 the run calls each layer's public functions in-process
// and records spans (name, start, end, parent, request id) around the
// calls, kept in memory and written to .bench_build/perfbench/ with each
// layer's self time. The workload's own path runs at its full size and the
// others as small probes, so every run reports every layer. The traced
// sweep is the program's own: each (scale, dataset) cell of the quick grid
// is a core.RunParallel under core.ParallelForCtx, as dpbench's experiment
// sweep runs it, with every mechanism wrapped so that its Plan and its
// plans' Execute record spans. Each metric
// below names the end-to-end metric it should move and on which workload;
// elsewhere the prediction is no change.
//
//   - dataset.generate_ms: throughput_per_s on sweep and setup_s on
//     serve_mixed.
//   - workload.truth_ms, workload.answer_ms (Evaluator.Reset + AnswerAll):
//     throughput_per_s on sweep. core makes these calls inside RunParallel,
//     where no span reaches, so they and Dataset.Generate are timed
//     serially on the grid's inputs after the traced grid.
//   - algo.plan_ms.{1d,2d}: throughput_per_s on sweep, setup_s on
//     serve_mixed. algo.execute_ms.<MECH>.<dims> and
//     algo.execute_allocs.<MECH>.<dims> (mallocs per Execute, serially) for
//     the 22 sweep pairs: throughput_per_s on sweep.
//   - serve.execute_us.<MECH>.<dims> for the 8 serve_mixed cells: op_p50_ms
//     and throughput_per_s on serve_mixed.
//   - core.trials (the base of every per-trial ratio) and core.busy_share
//     (layer time / (wall x workers)): throughput_per_s on sweep.
//   - serve.charge_us (noise.Accountant.Spend): op_p50_ms on serve_mixed.
//   - serve.handler_us, serve.http_us (client latency minus handler time),
//     serve.decode_us, serve.encode_us, serve.unaccounted_share (handler time
//     not in decode, two charges, Execute or encode): op_p50_ms and
//     throughput_per_s on serve_mixed. loadgen.lag_p99_ms is a diagnostic
//     only.
//   - ledger.recover_s (OpenWAL), ledger.replay_s (Store.Replay),
//     ledger.merkle_rebuild_s (Tree.Append over the recovered leaves),
//     ledger.appends, ledger.records_per_append, ledger.append_ms_p50/_p99
//     (a timing wrapper around Store.Append passed as Config.LedgerStore),
//     ledger.commit_wait_ms_p99 (Batcher.Submit) and ledger.prove_ms
//     (Tree.Prove), all from the 10^5-record probe: no end-to-end metric
//     here, since no workload serves through the ledger; they would move a
//     durable serve path's set-up, latency and capacity.
//   - lint.load_s (load.Load) and lint.<analyzer>_s (driver.Analyze with
//     that analyzer alone) for the 8 analyzers, lint.packages and
//     lint.findings, from a lint of ./internal/vec: no end-to-end metric
//     here, since no workload lints; they would move the lint's wall time.
//   - trace.covered_share: the share of the own phase's wall x concurrency
//     inside root layer spans. trace.overhead_share: the own phase traced
//     against the same work untraced, minus one: on sweep, the total walls
//     of three traced and three untraced grid passes that alternate; on
//     serve_mixed, the closed-loop rate of an untraced and a traced 2 s
//     segment. Single passes and segments differ by about 10%, more than
//     tracing costs, so the figure can read below zero.
//   - host.calibration_ns: the calibration loop, per step.
package main
