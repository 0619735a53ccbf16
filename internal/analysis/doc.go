// Doc.go records the seven invariants dpbench-lint enforces at compile time
// and the escape hatches for audited exceptions. The authoritative wording
// of each invariant lives on the Analyzer.Doc of the subpackages; this file
// is the map.
//
// # Why these checks exist
//
// The repo's correctness story rests on properties that used to be checked
// only at runtime: the budget-ledger audit (-audit runs), the golden tests,
// and the Plan-vs-Run bitwise-equivalence tests. A mechanism that draws
// from a raw *rand.Rand, spends under an undeclared ledger label, leaks a
// sub-meter, or iterates a map into an output buffer compiles cleanly and
// fails — at best — in a later runtime audit or a golden diff. The
// analyzers turn that whole bug class into a build failure.
//
// # The seven analyzers
//
//   - noisegate (internal/analysis/noisegate): inside dpbench/internal/algo,
//     privacy-relevant randomness must flow through an accountant-backed
//     noise.Meter. Direct math/rand draws, *rand.Rand method calls (other
//     than on the explicit zero-cost noise.Meter.Rand() path), and
//     hand-rolled math.Log/math.Exp noise synthesis are flagged, because a
//     draw the accountant never sees is a spend the audit can never prove.
//
//   - subclose (internal/analysis/subclose): a meter returned by Sub /
//     SubEps / SubParEps (or re-armed by ResetSub) must be closed back into
//     its parent on every control-flow path, in the style of vet's
//     lostcancel. A leaked sub-meter under-reports spend silently.
//
//   - determinism (internal/analysis/determinism): in dpbench/internal/algo,
//     internal/tree, internal/core, internal/experiments and internal/ledger,
//     map-range iteration must not write slices, append (unless the collected
//     keys are sorted before use), or accumulate floating point — and
//     time.Now / os.Getenv are banned outright. These are exactly the hazards
//     the bit-identical goldens and the Plan-vs-Run equivalence tests depend
//     on; in the ledger the canonical record encoding doubles as a Merkle
//     leaf, so any ambient input would fork the tree across replicas.
//
//   - internalboundary (internal/analysis/internalboundary): only the facade
//     packages (dpbench, dpbench/release, dpbench/privacy) and dpbench/cmd
//     may import dpbench/internal/...; examples must stay on the public API,
//     and internal packages must not import the facade back. This replaces
//     the old grep-based CI step with a real import-graph check.
//
//   - privtaint (internal/analysis/privtaint): the release invariant
//     itself, checked interprocedurally over dpbench/internal/algo and
//     dpbench/internal/serve with the dataflow engine in
//     internal/analysis/dataflow. Values derived from the private histogram
//     (vec.Vector and anything arithmetic touches) must cross an
//     accountant-metered noise draw before reaching Execute's output
//     buffer, an error string, an HTTP response, the durable budget
//     ledger's commit surface (internal/ledger's AppendRecord /
//     EncodeRecord / Tree.Append / Batcher.Submit / Store.Append — leaves
//     and records are republished verbatim by /v1/root and /v1/proof), or
//     — in Execute-phase and serve code — a branch condition. An example
//     finding:
//
//     php.go:187: privtaint: private value passed to abs feeds a branch
//     condition inside it: data-dependent control flow in the execute
//     phase is an uncharged side channel
//
//     Declared public side information (HayMMCZ16 Principle 7: the dataset
//     scale the grid mechanisms use for layout) is exempted per line with
//     `//dp:public <justification>`; every such annotation is part of the
//     audited privacy argument, not a convenience.
//
//   - allocfree (internal/analysis/allocfree): a function annotated
//     `//dp:hotpath` (Plan.Execute bodies, Meter draw paths, the serve
//     answer path) must not heap-allocate per call, verified against the
//     compiler's own escape analysis (go build -gcflags=-m) rather than a
//     benchmark diff. An example finding:
//
//     grid.go:339: allocfree: heap allocation in //dp:hotpath function
//     Execute: make([]float64, area) escapes to heap — hot paths must
//     reuse plan- or pool-owned buffers
//
//     Interface boxing and nested func literals (the sync.Pool refill
//     idiom) are exempt; allocations in un-annotated helpers are invisible
//     to the span check, so helpers that join the contract must be
//     annotated themselves.
//
//   - epsflow (internal/analysis/epsflow): the budget identity itself,
//     proved symbolically. For every mechanism in dpbench/internal/algo —
//     recognized by its Plan(..., eps float64) (plan, error) / Execute(m
//     *noise.Meter, ...) pair — epsflow abstractly interprets the Plan body
//     with epsilon as a symbolic variable, carries the resulting plan into
//     Execute, and tracks every meter charge as an exact linear expression
//     in eps (big.Rat coefficients, so eps/3 + 2*eps/3 is exactly eps).
//     Sequential charges add, parallel charges (ChargePar, SubParEps) max,
//     sub-meters must close back into their parent, and paths join at
//     branches. On every non-exempt outcome path (exempt: paths that
//     provably return a non-nil error before spending) the accumulated
//     total must equal the declared budget exactly — over-spend,
//     under-spend, and branch-asymmetric spend are all compile failures.
//     An example finding, from a plan that charges half its budget up
//     front and then draws at the full rate:
//
//     mech.go:47: epsflow: OverMech over-spends: this path charges
//     3/2*eps of a declared budget eps
//
//     Loops the interpreter cannot close (data-dependent trip counts) are
//     declared with a checked `//dp:spends [par] <expr>` annotation on the
//     line above the loop: the expression (any linear combination of the
//     plan's epsilon fields, e.g. `//dp:spends p.eps / 2`) is what the
//     loop charges in total, `par` marks a parallel-composition loop. The
//     annotation is verified, not trusted — for closable loops the
//     declared total is cross-checked against the proven per-iteration
//     footprint, and for open loops the per-iteration charge must be an
//     epsilon-free multiple of a single stream so the declared total is
//     the only free parameter.
//
//     On the same paths epsflow checks the ledger labels: every label
//     charged into the mechanism's audited meter — a spend's label, a
//     sub-meter's label, the per-level labels Flat.MeasureInto charges —
//     must be a string constant or an idxLabel(labelTable("kd", n), i)
//     family that the mechanism's CompositionPlan() declares (wildcard
//     entries like "level*" included). Because helpers are interpreted in
//     their caller's context, a constant forwarded through any number of
//     helpers is checked where it is chosen. Labels inside a
//     //dp:spends-annotated function are checked against every mechanism
//     that reaches it. A spend that no mechanism reaches, and an exported
//     function that forwards a label parameter to a spend, are findings:
//     neither can be tied to a plan. Undeclared-label drift is otherwise
//     caught only when an audited run happens to execute that code path.
//
//     epsflow is the static complement of the runtime -audit flag: -audit
//     replays one execution and checks the ledger for the paths that run;
//     epsflow proves the identity and the labels over every path of every
//     mechanism at compile time, including error paths and branch arms no
//     audit input exercises. It is most of the cost of a dpbench-lint ./...
//     run, which takes about 7 s of wall time on a 2-vCPU Xeon (Go 1.24).
//
// # Escape hatches
//
// A finding that is understood and deliberately accepted — for example the
// legacy-sampler path planned in ROADMAP item 2, which must keep the exact
// historical draw sequence — is silenced with a comment on the flagged line
// or the line directly above it:
//
//	//lint:allow noisegate legacy sampler keeps the golden draw order
//
// The analyzer name is required; everything after it is the justification
// and should cite why the invariant holds anyway. Allow comments are
// scoped to a single line so an exception can never grow silently — and a
// grant that no longer silences anything is itself reported by the driver
// (pseudo-analyzer "unusedallow"), so stale suppressions cannot accumulate.
//
// The three annotations the new analyzers read are affirmative declarations
// rather than suppressions: `//dp:public <why>` declares a value as audited
// public side information (privtaint), `//dp:hotpath` declares a
// zero-allocation contract the compiler is asked to verify (allocfree), and
// `//dp:spends [par] <expr>` declares — and submits for verification — the
// total epsilon a loop charges (epsflow).
package analysis
