package epsflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"math"
	"math/big"
	"sort"
)

// valueKind discriminates the abstract values the interpreter tracks.
type valueKind uint8

const (
	vOpaque valueKind = iota // unknown non-numeric value
	vNum                     // exact symbolic rational (rat)
	vSlice                   // []float64 budget slice: tracked symbolic sum
	vBool                    // boolean: known constant or symbolic atom
	vStr                     // string: constant label or label-table entry
	vNil                     // the untyped nil literal
	vErr                     // an error value with tracked nil-ness
	vMeter                   // a *noise.Meter: key into the path's meter table
	vStruct                  // a struct instance with tracked fields
	vFunc                    // a func value (ignored unless called)
	vTuple                   // a multi-value (call result / multi-return)
	vLabels                  // a precomputed label-table slice (labelTable)
)

// tri is three-valued truth.
type tri int8

const (
	triUnknown tri = iota
	triTrue
	triFalse
)

func triOf(b bool) tri {
	if b {
		return triTrue
	}
	return triFalse
}

// value is one abstract value. Exactly the fields for its kind are set.
type value struct {
	kind valueKind

	r rat // vNum

	// vSlice: symbolic sum of the elements; sumKnown=false means the sum is
	// unconstrained (an opaque data slice). nonNil tracks nil-ness for
	// Plan/Execute branch correlation.
	sum      rat
	sumKnown bool
	nonNil   tri

	// vBool
	b     bool
	bSet  bool // b is a known constant
	bAtom int  // symbolic bool atom when !bSet (-1 if absent)

	// vStr
	s        string
	sConst   bool
	family   string // label-table family ("split", "kd", ...)
	famIdx   rat    // symbolic index into the family
	famIdxOK bool
	at       token.Pos // where a constant or family label was chosen

	// vErr
	errNonNil tri

	// vMeter
	meter string

	// vStruct
	typ      *types.TypeName
	fields   map[string]value
	lazyStem string // non-empty: unset fields materialize as named atoms

	// vTuple
	tuple []value

	// Delegated-plan contract: set on the opaque result of an unmodeled
	// `recv.Plan(..., eps)` call. Calling Execute with a meter on such a
	// value charges planEps sequentially — sound because epsflow verifies
	// every concrete Execute in the package charges exactly its plan's eps.
	planEps    rat
	planEpsSet bool

	poisonOnFalse bool // ExpMechGumbels result: branching false poisons
}

func tupleVal(vs ...value) value { return value{kind: vTuple, tuple: vs} }

func labelsVal(family string, n int) value {
	return value{kind: vLabels, family: family, nonNil: triTrue, sum: ratFloat(float64(n)), sumKnown: true}
}

func numVal(r rat) value     { return value{kind: vNum, r: r} }
func opaqueVal() value       { return value{kind: vOpaque, bAtom: -1} }
func nilVal() value          { return value{kind: vNil, nonNil: triFalse, errNonNil: triFalse} }
func boolConst(b bool) value { return value{kind: vBool, b: b, bSet: true, bAtom: -1} }
func strVal(s string) value  { return value{kind: vStr, s: s, sConst: true} }

func errVal(nonNil tri) value { return value{kind: vErr, errNonNil: nonNil} }

func sliceVal(sum rat) value {
	return value{kind: vSlice, sum: sum, sumKnown: true, nonNil: triTrue}
}

func opaqueSlice(nonNil tri) value {
	return value{kind: vSlice, nonNil: nonNil}
}

// structVal creates a struct instance. With lazyStem == "", absent fields
// read as their zero value (a composite literal); with a stem, absent fields
// materialize as named atoms "stem.field" (an unknown instance, e.g. the
// mechanism receiver — the interning makes Plan and Execute share them).
func structVal(tn *types.TypeName, lazyStem string) value {
	return value{kind: vStruct, typ: tn, fields: map[string]value{}, lazyStem: lazyStem, nonNil: triTrue}
}

// withField returns a copy of a struct value with one field replaced
// (values are treated immutably: paths own their variable maps, struct
// instances are shared until written).
func (v value) withField(name string, fv value) value {
	nf := make(map[string]value, len(v.fields)+1)
	for k, val := range v.fields {
		nf[k] = val
	}
	nf[name] = fv
	out := v
	out.fields = nf
	return out
}

// bound is one side of an interval constraint.
type bound struct {
	val    float64
	strict bool
	set    bool
}

// interval is the constraint on one numeric atom.
type interval struct {
	lo, hi bound
}

// point returns the single value the interval pins, if any (integral atoms
// tighten strict bounds first).
func (iv interval) point(integer bool) (*big.Rat, bool) {
	lo, hi := iv.lo, iv.hi
	if integer {
		if lo.set && lo.strict {
			lo.val = math.Floor(lo.val) + 1
			lo.strict = false
		} else if lo.set {
			lo.val = math.Ceil(lo.val)
		}
		if hi.set && hi.strict {
			hi.val = math.Ceil(hi.val) - 1
			hi.strict = false
		} else if hi.set {
			hi.val = math.Floor(hi.val)
		}
	}
	if lo.set && hi.set && !lo.strict && !hi.strict && lo.val == hi.val {
		r := new(big.Rat)
		r.SetFloat64(lo.val)
		return r, true
	}
	return nil, false
}

// empty reports an infeasible interval (contradictory path: prune).
func (iv interval) empty(integer bool) bool {
	lo, hi := iv.lo, iv.hi
	if !lo.set || !hi.set {
		return false
	}
	l, h := lo.val, hi.val
	if integer {
		if lo.strict {
			l = math.Floor(l) + 1
		} else {
			l = math.Ceil(l)
		}
		if hi.strict {
			h = math.Ceil(h) - 1
		} else {
			h = math.Floor(h)
		}
		return l > h
	}
	if l > h {
		return true
	}
	return l == h && (lo.strict || hi.strict)
}

// constraints is one path's knowledge: numeric atom intervals and boolean
// atom assignments. Copied on path forks.
type constraints struct {
	num  map[int]interval
	bool map[int]bool
}

func newConstraints() *constraints {
	return &constraints{num: map[int]interval{}, bool: map[int]bool{}}
}

func (c *constraints) clone() *constraints {
	out := newConstraints()
	for k, v := range c.num {
		out.num[k] = v
	}
	for k, v := range c.bool {
		out.bool[k] = v
	}
	return out
}

// addLower/addUpper tighten an atom's interval; they report false when the
// interval becomes empty (the path is contradictory).
func (c *constraints) addLower(id int, v float64, strict, integer bool) bool {
	iv := c.num[id]
	if !iv.lo.set || v > iv.lo.val || (v == iv.lo.val && strict && !iv.lo.strict) {
		iv.lo = bound{val: v, strict: strict, set: true}
	}
	c.num[id] = iv
	return !iv.empty(integer)
}

func (c *constraints) addUpper(id int, v float64, strict, integer bool) bool {
	iv := c.num[id]
	if !iv.hi.set || v < iv.hi.val || (v == iv.hi.val && strict && !iv.hi.strict) {
		iv.hi = bound{val: v, strict: strict, set: true}
	}
	c.num[id] = iv
	return !iv.empty(integer)
}

// substPoints substitutes every point-valued atom into r.
func (c *constraints) substPoints(r rat, at *atoms) rat {
	ids := make([]int, 0, len(c.num))
	for id := range c.num {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if !r.hasAtom(id) {
			continue
		}
		if p, ok := c.num[id].point(at.isInt[id]); ok {
			r = r.substPoint(id, p)
		}
	}
	return r
}

// intervalOf evaluates the interval of a rat under the constraints. Only
// polynomials linear in constrained atoms produce useful bounds; anything
// else widens to (-inf, +inf).
func (c *constraints) intervalOf(r rat, at *atoms) (lo, hi float64, loS, hiS bool) {
	r = c.substPoints(r.normalize(), at)
	nlo, nhi, nls, nhs := c.polyInterval(r.num, at)
	if len(r.den) == 0 {
		return nlo, nhi, nls, nhs
	}
	for _, d := range r.den {
		dlo, dhi, _, _ := c.polyInterval(d, at)
		if dlo > 0 {
			continue // positive factor: sign preserved; magnitude unknown
		}
		if dhi < 0 { // negative factor flips the sign
			nlo, nhi = -nhi, -nlo
			nls, nhs = nhs, nls
			continue
		}
		return math.Inf(-1), math.Inf(1), true, true
	}
	// Division by positives keeps the sign but loses magnitude bounds.
	if nlo > 0 {
		return 0, math.Inf(1), true, true
	}
	if nhi < 0 {
		return math.Inf(-1), 0, true, true
	}
	if nlo >= 0 {
		return 0, math.Inf(1), nls && nlo == 0, true
	}
	if nhi <= 0 {
		return math.Inf(-1), 0, true, nhs && nhi == 0
	}
	return math.Inf(-1), math.Inf(1), true, true
}

func (c *constraints) polyInterval(p poly, at *atoms) (lo, hi float64, loS, hiS bool) {
	lo, hi = 0, 0
	for m, coef := range p {
		cf, _ := coef.Float64()
		mlo, mhi, mls, mhs := c.monoInterval(m, at)
		tlo, thi, tls, ths := mulInterval(cf, mlo, mhi, mls, mhs)
		lo, hi = lo+tlo, hi+thi
		loS, hiS = loS || tls, hiS || ths
	}
	return lo, hi, loS, hiS
}

func (c *constraints) monoInterval(m mono, at *atoms) (lo, hi float64, loS, hiS bool) {
	lo, hi = 1, 1
	for id, e := range decodeMono(m) {
		iv := c.num[id]
		alo, ahi := math.Inf(-1), math.Inf(1)
		als, ahs := true, true
		if iv.lo.set {
			alo, als = iv.lo.val, iv.lo.strict
		}
		if iv.hi.set {
			ahi, ahs = iv.hi.val, iv.hi.strict
		}
		if at.isInt[id] {
			if als && !math.IsInf(alo, 0) {
				alo, als = math.Floor(alo)+1, false
			}
			if ahs && !math.IsInf(ahi, 0) {
				ahi, ahs = math.Ceil(ahi)-1, false
			}
		}
		for i := 0; i < e; i++ {
			lo, hi, loS, hiS = intervalTimes(lo, hi, loS, hiS, alo, ahi, als, ahs)
		}
	}
	return lo, hi, loS, hiS
}

func mulInterval(c, lo, hi float64, loS, hiS bool) (float64, float64, bool, bool) {
	if c >= 0 {
		return c * lo, c * hi, loS, hiS
	}
	return c * hi, c * lo, hiS, loS
}

func intervalTimes(alo, ahi float64, als, ahs bool, blo, bhi float64, bls, bhs bool) (float64, float64, bool, bool) {
	type cand struct {
		v float64
		s bool
	}
	cands := []cand{
		{alo * blo, als || bls}, {alo * bhi, als || bhs},
		{ahi * blo, ahs || bls}, {ahi * bhi, ahs || bhs},
	}
	lo, hi := cands[0], cands[0]
	for _, cd := range cands[1:] {
		if cd.v < lo.v || (cd.v == lo.v && !cd.s) {
			lo = cd
		}
		if cd.v > hi.v || (cd.v == hi.v && !cd.s) {
			hi = cd
		}
	}
	return lo.v, hi.v, lo.s, hi.s
}

// cmpZero decides sign(r) op 0 under the constraints, or triUnknown.
func (c *constraints) cmpZero(r rat, at *atoms, op string) tri {
	lo, hi, loS, hiS := c.intervalOf(r, at)
	switch op {
	case ">":
		if lo > 0 || (lo == 0 && loS) {
			return triTrue
		}
		if hi < 0 || (hi == 0 && !hiS) {
			return triFalse
		}
	case ">=":
		if lo >= 0 {
			return triTrue
		}
		if hi < 0 || (hi == 0 && hiS) {
			return triFalse
		}
	case "<":
		if hi < 0 || (hi == 0 && hiS) {
			return triTrue
		}
		if lo > 0 || (lo == 0 && !loS) {
			return triFalse
		}
	case "<=":
		if hi <= 0 {
			return triTrue
		}
		if lo > 0 || (lo == 0 && loS) {
			return triFalse
		}
	case "==":
		if lo == 0 && hi == 0 && !loS && !hiS {
			return triTrue
		}
		if lo > 0 || hi < 0 || (lo == 0 && loS) || (hi == 0 && hiS) {
			return triFalse
		}
	case "!=":
		switch c.cmpZero(r, at, "==") {
		case triTrue:
			return triFalse
		case triFalse:
			return triTrue
		}
	}
	return triUnknown
}

// linearAtom decomposes r as c1*atom + c0 with constant coefficients and no
// denominator, enabling interval constraint extraction from comparisons.
func (r rat) linearAtom() (id int, c1, c0 *big.Rat, ok bool) {
	n := r.normalize()
	if len(n.den) != 0 {
		return 0, nil, nil, false
	}
	c0 = new(big.Rat)
	c1 = new(big.Rat)
	id = -1
	for m, c := range n.num {
		if m == monoOne {
			c0.Set(c)
			continue
		}
		exps := decodeMono(m)
		if len(exps) != 1 {
			return 0, nil, nil, false
		}
		for aid, e := range exps {
			if e != 1 || id != -1 {
				return 0, nil, nil, false
			}
			id = aid
			c1.Set(c)
		}
	}
	if id == -1 {
		return 0, nil, nil, false
	}
	return id, c1, c0, true
}

// chargeKey identifies one parallel-composition scope: a constant label, or
// a (family, symbolic index) entry of a precomputed label table.
type chargeKey struct {
	label  string
	family string
	idx    string // rendered famIdx, for map identity
}

// parEntry is one parallel scope's recorded charge.
type parEntry struct {
	amount rat
	fam    bool
	idx    rat // symbolic family index (fam only)
}

// meterState tracks the charges recorded against one meter (the root meter
// of an Execute call, or a sub-meter opened inside it).
type meterState struct {
	budget   rat  // the meter's total (eps for the root; Sub* argument)
	parallel bool // sub-meter composition kind at Close
	label    string
	parent   string // key of the meter Close charges into
	closed   bool
	isRoot   bool

	seq rat // sequential spends, summed

	// par maps each parallel scope to its per-scope amount (runtime
	// semantics: same-label parallel spends count once). famSum accumulates
	// index-ranged families (labels indexed by a loop variable: each index
	// is its own scope, so the scopes sum).
	par    map[chargeKey]parEntry
	parIdx []chargeKey // deterministic iteration order
	famSum rat
}

func newMeterState(budget rat, isRoot bool) *meterState {
	return &meterState{budget: budget, isRoot: isRoot, seq: ratZero(), famSum: ratZero(), par: map[chargeKey]parEntry{}}
}

func (ms *meterState) clone() *meterState {
	out := *ms
	out.par = make(map[chargeKey]parEntry, len(ms.par))
	for k, v := range ms.par {
		out.par[k] = v
	}
	out.parIdx = append([]chargeKey{}, ms.parIdx...)
	return &out
}

// total is the meter's recorded spend: sequential + each parallel scope once
// + the ranged families.
func (ms *meterState) total() rat {
	t := ratAdd(ms.seq, ms.famSum)
	for _, k := range ms.parIdx {
		t = ratAdd(t, ms.par[k].amount)
	}
	return t
}

// addSeq/addPar record charges. addPar reports a conflict when one scope
// sees two symbolically different amounts (branch-dependent parallel spend).
func (ms *meterState) addSeq(amount rat) { ms.seq = ratAdd(ms.seq, amount) }

func (ms *meterState) addPar(key chargeKey, e parEntry) (conflict bool) {
	if cur, ok := ms.par[key]; ok {
		return !ratEqual(cur.amount, e.amount)
	}
	ms.par[key] = e
	ms.parIdx = append(ms.parIdx, key)
	return false
}

// deferredOp is a deferred meter operation (only sub.Close is supported).
type deferredOp struct {
	meterKey string
}

// frame is one function activation during inlining: parameter/local values
// by object, plus the declared result objects (for bare returns) and the
// deferred closes to apply at function exit.
type frame struct {
	fn      *ast.FuncDecl
	vars    map[types.Object]value
	results []types.Object
	defers  []deferredOp
}

func (f *frame) clone() *frame {
	out := &frame{fn: f.fn, results: f.results}
	out.vars = make(map[types.Object]value, len(f.vars))
	for k, v := range f.vars {
		out.vars[k] = v
	}
	out.defers = append([]deferredOp{}, f.defers...)
	return out
}

// annEvent records a call to a //dp:spends-annotated function: instead of
// inlining, the annotation's value is charged at path end (parallel-annotated
// calls with identical annotation-relevant arguments fold to one charge,
// mirroring the runtime's parallel-composition dedup).
type annEvent struct {
	fn       types.Object
	meterKey string
	par      bool
	amount   rat
	argsKey  string
	pos      ast.Node
}

// state is one execution path: constraints, the frame stack, meters, and
// bookkeeping for exemption.
type state struct {
	cons   *constraints
	frames []*frame // innermost last
	meters map[string]*meterState
	mOrder []string

	poisoned bool // a meter op's failure branch was taken: audit-exempt

	annEvents []annEvent

	memo map[string]value // expression-string memo for opaque pure calls
}

func (s *state) clone() *state {
	out := &state{
		cons:      s.cons.clone(),
		meters:    make(map[string]*meterState, len(s.meters)),
		mOrder:    append([]string{}, s.mOrder...),
		poisoned:  s.poisoned,
		annEvents: append([]annEvent{}, s.annEvents...),
		memo:      make(map[string]value, len(s.memo)),
	}
	for _, f := range s.frames {
		out.frames = append(out.frames, f.clone())
	}
	for k, v := range s.meters {
		out.meters[k] = v.clone()
	}
	for k, v := range s.memo {
		out.memo[k] = v
	}
	return out
}

func (s *state) top() *frame { return s.frames[len(s.frames)-1] }

func (s *state) meterAt(key string) *meterState {
	if ms, ok := s.meters[key]; ok {
		return ms
	}
	ms := newMeterState(ratZero(), false)
	s.meters[key] = ms
	s.mOrder = append(s.mOrder, key)
	return ms
}

func (s *state) setMeter(key string, ms *meterState) {
	if _, ok := s.meters[key]; !ok {
		s.mOrder = append(s.mOrder, key)
	}
	s.meters[key] = ms
}

// lookup finds a variable in the innermost frame.
func (s *state) lookup(obj types.Object) (value, bool) {
	v, ok := s.top().vars[obj]
	return v, ok
}

func (s *state) assign(obj types.Object, v value) {
	if obj == nil {
		return
	}
	s.top().vars[obj] = v
	s.invalidateMemo(obj.Name())
}

// invalidateMemo drops memoized opaque-call results whose expression text
// mentions name as an identifier. Memo keys are expression strings, so after
// `w = ...` a cached `w.Size()` would replay the old receiver's value.
func (s *state) invalidateMemo(name string) {
	if name == "" || name == "_" {
		return
	}
	isIdent := func(b byte) bool {
		return b == '_' || b >= '0' && b <= '9' || b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z'
	}
	for k := range s.memo {
		for i := 0; i+len(name) <= len(k); i++ {
			if k[i:i+len(name)] != name {
				continue
			}
			if i > 0 && isIdent(k[i-1]) {
				continue
			}
			if j := i + len(name); j < len(k) && isIdent(k[j]) {
				continue
			}
			delete(s.memo, k)
			break
		}
	}
}

// control says how a statement sequence ended on one path.
type control uint8

const (
	ctlFall control = iota
	ctlReturn
	ctlBreak
	ctlContinue
)

// outcome is one resulting path of interpreting a statement sequence.
type outcome struct {
	st      *state
	ctl     control
	results []value  // ctlReturn: the returned values
	retPos  ast.Node // the return statement (diagnostic anchor)
}

func fmtChargeKey(k chargeKey) string {
	if k.family != "" {
		return fmt.Sprintf("%s[%s]", k.family, k.idx)
	}
	return fmt.Sprintf("%q", k.label)
}
