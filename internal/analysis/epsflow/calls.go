package epsflow

import (
	"go/ast"
	"go/types"

	"dpbench/internal/analysis/meterapi"
)

func (vr *verifier) calleeObj(call *ast.CallExpr) types.Object {
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		return vr.pass.TypesInfo.Uses[f]
	case *ast.SelectorExpr:
		return vr.pass.TypesInfo.Uses[f.Sel]
	}
	return nil
}

// touchesNode reports whether the subtree can charge a meter: a direct meter
// method call, a tree measurement, or a call into a charging local function.
func (vr *verifier) touchesNode(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(nn ast.Node) bool {
		if found {
			return false
		}
		call, ok := nn.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, ok := meterapi.MeterMethod(vr.pass.TypesInfo, call); ok {
			found = true
			return false
		}
		if vr.isTreeMeasure(call) {
			found = true
			return false
		}
		if obj := vr.calleeObj(call); obj != nil {
			if vr.touches[obj] || vr.spendFn[obj] != nil {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func objPkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

const treePkgPath = "dpbench/internal/tree"

func (vr *verifier) isTreeMeasure(call *ast.CallExpr) bool {
	obj := vr.calleeObj(call)
	if objPkgPath(obj) != treePkgPath {
		return false
	}
	return obj.Name() == "MeasureInto"
}

func (vr *verifier) evalCall(call *ast.CallExpr, st *state) []ev {
	// Conversions T(x).
	if tv, ok := vr.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return vr.evalConversion(call, tv.Type, st)
	}
	// Builtins.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := vr.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			return vr.evalBuiltin(b.Name(), call, st)
		}
	}
	// Meter methods.
	if name, ok := meterapi.MeterMethod(vr.pass.TypesInfo, call); ok {
		return vr.meterOp(name, call, st)
	}
	callee := vr.calleeObj(call)
	if callee != nil {
		if anno := vr.spendFn[callee]; anno != nil {
			return vr.annCall(call, callee, anno, st)
		}
		if vr.isLocalIntrinsic(callee, "idxLabel") {
			return vr.idxLabelCall(call, st)
		}
		if vr.isLocalIntrinsic(callee, "labelTable") {
			return vr.labelTableCall(call, st)
		}
		if decl := vr.decls[callee]; decl != nil {
			return vr.inlineCall(call, decl, st)
		}
		if evs, ok := vr.intrinsicCall(call, callee, st); ok {
			return evs
		}
	}
	// Interface-dispatched method on a tracked struct (a stored sub-plan):
	// resolve the concrete method declaration by the receiver's type.
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if evs, ok := vr.dynamicCall(call, sel, st); ok {
			return evs
		}
	}
	// Opaque call: refuse if a meter escapes into it, otherwise memoize.
	for _, a := range call.Args {
		if t, ok := vr.pass.TypesInfo.Types[a]; ok && t.Type != nil && isMeterType(t.Type) {
			if evs, handled := vr.delegatedExecute(call, st); handled {
				return evs
			}
			vr.abort(call, "meter passed to unmodeled call %s", types.ExprString(call.Fun))
		}
	}
	var out []ev
	for _, le := range vr.evalList(call.Args, st) {
		v := vr.memoValue(call, le.st)
		if eps, ok := vr.delegatedPlanEps(call, le.vals); ok {
			v = tagPlanEps(v, eps)
		}
		out = append(out, ev{v: v, st: le.st})
	}
	return out
}

// delegatedPlanEps recognizes an unmodeled `recv.Plan(...)` call carrying
// exactly one float64 argument — the mechanism entry-point shape dispatched
// through an interface (a wrapper like the sampler's s.inner.Plan). The
// budget that call received is the delegated-plan contract attached to its
// opaque result.
func (vr *verifier) delegatedPlanEps(call *ast.CallExpr, vals []value) (rat, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Plan" {
		return ratZero(), false
	}
	tv, ok := vr.pass.TypesInfo.Types[call]
	if !ok || tv.Type == nil {
		return ratZero(), false
	}
	tup, ok := tv.Type.(*types.Tuple)
	if !ok || tup.Len() != 2 || !isErrorType(tup.At(1).Type()) {
		return ratZero(), false
	}
	eps, floats := ratZero(), 0
	for i, a := range call.Args {
		at, ok := vr.pass.TypesInfo.Types[a]
		if !ok || at.Type == nil || !isFloatType(at.Type) {
			continue
		}
		floats++
		if i < len(vals) && vals[i].kind == vNum {
			eps = vals[i].r
		} else {
			return ratZero(), false
		}
	}
	return eps, floats == 1
}

// tagPlanEps attaches the contract to the plan slot of the memoized
// (plan, error) result.
func tagPlanEps(v value, eps rat) value {
	if v.kind != vTuple || len(v.tuple) == 0 {
		return v
	}
	tp := append([]value{}, v.tuple...)
	tp[0].planEps = eps
	tp[0].planEpsSet = true
	v.tuple = tp
	return v
}

// delegatedExecute models `plan.Execute(m, ...)` on a contract-tagged plan:
// the whole call charges the plan's eps sequentially into the meter. This is
// the compositional half of the contract — every concrete Execute in the
// package is separately verified to charge exactly its declared budget.
func (vr *verifier) delegatedExecute(call *ast.CallExpr, st *state) ([]ev, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Execute" {
		return nil, false
	}
	probe := vr.eval(sel.X, st)
	for _, re := range probe {
		if !re.v.planEpsSet {
			return nil, false
		}
	}
	var out []ev
	for _, re := range probe {
		eps := re.v.planEps
		for _, le := range vr.evalList(call.Args, re.st) {
			charged := false
			for _, av := range le.vals {
				if av.kind == vMeter {
					le.st.meterAt(av.meter).addSeq(eps)
					charged = true
					break
				}
			}
			if !charged {
				vr.abort(call, "cannot resolve the meter passed to a delegated Execute")
			}
			out = append(out, ev{v: errVal(triUnknown), st: le.st})
		}
	}
	return out, true
}

func (vr *verifier) isLocalIntrinsic(obj types.Object, name string) bool {
	return obj.Name() == name && obj.Pkg() == vr.pass.Pkg && vr.decls[obj] != nil
}

// idxLabel(table, i) is treated as an intrinsic family index rather than
// inlined: inlining its clamp would fork a fixed last-index path whose
// per-iteration charge shape differs from the symbolic-index path.
func (vr *verifier) idxLabelCall(call *ast.CallExpr, st *state) []ev {
	var out []ev
	for _, le := range vr.evalList(call.Args, st) {
		if len(le.vals) == 2 && le.vals[0].kind == vLabels && le.vals[1].kind == vNum {
			out = append(out, ev{v: value{kind: vStr, family: le.vals[0].family, famIdx: le.vals[1].r, famIdxOK: true, at: call.Pos()}, st: le.st})
		} else {
			out = append(out, ev{v: value{kind: vStr, bAtom: -1}, st: le.st})
		}
	}
	return out
}

func (vr *verifier) labelTableCall(call *ast.CallExpr, st *state) []ev {
	var out []ev
	for _, le := range vr.evalList(call.Args, st) {
		v := value{kind: vSlice, nonNil: triTrue, bAtom: -1}
		if len(le.vals) == 2 && le.vals[0].kind == vStr && le.vals[0].sConst {
			if n, ok := le.vals[1].r.isConst(); ok && le.vals[1].kind == vNum && n.IsInt() {
				f, _ := n.Float64()
				v = labelsVal(le.vals[0].s, int(f))
			}
		}
		out = append(out, ev{v: v, st: le.st})
	}
	return out
}

func (vr *verifier) evalConversion(call *ast.CallExpr, t types.Type, st *state) []ev {
	var out []ev
	for _, x := range vr.eval(call.Args[0], st) {
		v := x.v
		switch {
		case isFloatType(t):
			if v.kind != vNum {
				v = vr.memoValue(call, x.st)
			}
		case isIntType(t):
			srcInt := false
			if tv, ok := vr.pass.TypesInfo.Types[call.Args[0]]; ok && tv.Type != nil {
				srcInt = isIntType(tv.Type)
			}
			if v.kind == vNum && srcInt {
				// integer-to-integer: exact
			} else if v.kind == vNum {
				if c, ok := v.r.isConst(); ok && c.IsInt() {
					// an exact integer constant survives truncation
				} else {
					v = vr.memoValue(call, x.st) // float->int truncation
				}
			} else {
				v = vr.memoValue(call, x.st)
			}
		}
		out = append(out, ev{v: v, st: x.st})
	}
	return out
}

func (vr *verifier) evalBuiltin(name string, call *ast.CallExpr, st *state) []ev {
	switch name {
	case "len", "cap":
		var out []ev
		for _, x := range vr.eval(call.Args[0], st) {
			switch x.v.kind {
			case vLabels:
				out = append(out, ev{v: numVal(x.v.sum), st: x.st})
			case vStr:
				if x.v.sConst {
					out = append(out, ev{v: numVal(ratFloat(float64(len(x.v.s)))), st: x.st})
					continue
				}
				out = append(out, ev{v: vr.lenValue(call, x.st), st: x.st})
			default:
				out = append(out, ev{v: vr.lenValue(call, x.st), st: x.st})
			}
		}
		return out
	case "make":
		if t, ok := vr.pass.TypesInfo.Types[call.Args[0]]; ok && t.Type != nil {
			if _, isSlice := t.Type.Underlying().(*types.Slice); isSlice {
				// zero-filled: the tracked sum starts at 0
				var out []ev
				for _, le := range vr.evalList(call.Args[1:], st) {
					out = append(out, ev{v: sliceVal(ratZero()), st: le.st})
				}
				return out
			}
		}
		return one(opaqueVal(), st)
	case "append":
		return vr.appendBuiltin(call, st)
	case "new":
		if t, ok := vr.pass.TypesInfo.Types[call.Args[0]]; ok && t.Type != nil {
			return one(vr.zeroValue(t.Type), st)
		}
		return one(opaqueVal(), st)
	case "min", "max":
		return vr.minMaxBuiltin(name, call, st)
	case "panic":
		vr.abort(call, "panic in expression position")
	}
	var out []ev
	for _, le := range vr.evalList(call.Args, st) {
		out = append(out, ev{v: vr.memoValue(call, le.st), st: le.st})
	}
	return out
}

// lenValue memoizes len(x) as a positive integer unknown. Positive, not
// just nonnegative: every mechanism validates its data non-empty at Plan
// entry, and the sizes flowing into budget arithmetic (domain cells, grid
// dims, candidate sets) all derive from it. Without this, every counted
// loop over a data dimension grows an unreachable zero-size path whose
// charge total is a spurious under-spend finding.
func (vr *verifier) lenValue(call *ast.CallExpr, st *state) value {
	key := "len:" + types.ExprString(call.Args[0])
	if v, ok := st.memo[key]; ok {
		return v
	}
	id := vr.at.fresh("len", true)
	st.cons.addLower(id, 1, false, true)
	v := numVal(ratAtom(id))
	st.memo[key] = v
	return v
}

func (vr *verifier) appendBuiltin(call *ast.CallExpr, st *state) []ev {
	var out []ev
	for _, le := range vr.evalList(call.Args, st) {
		base := le.vals[0]
		if base.kind != vSlice {
			out = append(out, ev{v: opaqueSlice(triTrue), st: le.st})
			continue
		}
		v := base
		v.nonNil = triTrue
		if v.sumKnown {
			for i, a := range le.vals[1:] {
				if call.Ellipsis.IsValid() && i == len(le.vals)-2 {
					if a.kind == vSlice && a.sumKnown {
						v.sum = ratAdd(v.sum, a.sum)
					} else {
						v.sumKnown = false
					}
					continue
				}
				if a.kind == vNum {
					v.sum = ratAdd(v.sum, a.r)
				} else {
					v.sumKnown = false
				}
			}
		}
		out = append(out, ev{v: v, st: le.st})
	}
	return out
}

func (vr *verifier) minMaxBuiltin(name string, call *ast.CallExpr, st *state) []ev {
	evs := vr.evalList(call.Args, st)
	var out []ev
	for _, le := range evs {
		out = append(out, vr.foldMinMax(name, le.vals, le.st, call)...)
	}
	return out
}

func (vr *verifier) foldMinMax(name string, vals []value, st *state, at ast.Node) []ev {
	if len(vals) == 1 {
		return one(vals[0], st)
	}
	x, y := vals[0], vals[1]
	rest := vals[2:]
	if x.kind != vNum || y.kind != vNum {
		return one(vr.freshTyped(nil, name), st)
	}
	d := st.cons.substPoints(ratSub(x.r, y.r), vr.at)
	pick := func(v value, s *state) []ev {
		return vr.foldMinMax(name, append([]value{v}, rest...), s, at)
	}
	bigger, smaller := x, y
	switch st.cons.cmpZero(d, vr.at, ">=") {
	case triTrue:
		if name == "max" {
			return pick(bigger, st)
		}
		return pick(smaller, st)
	case triFalse:
		if name == "max" {
			return pick(y, st)
		}
		return pick(x, st)
	}
	vr.tick(at)
	ge, lt := st, st.clone()
	var out []ev
	if vr.assume(ge, d, ">=") {
		if name == "max" {
			out = append(out, pick(x, ge)...)
		} else {
			out = append(out, pick(y, ge)...)
		}
	}
	if vr.assume(lt, d, "<") {
		if name == "max" {
			out = append(out, pick(y, lt)...)
		} else {
			out = append(out, pick(x, lt)...)
		}
	}
	return out
}

// --- cross-package intrinsics ---

func (vr *verifier) intrinsicCall(call *ast.CallExpr, callee types.Object, st *state) ([]ev, bool) {
	pkg := objPkgPath(callee)
	switch pkg {
	case treePkgPath:
		switch callee.Name() {
		case "UniformLevelBudget", "GeometricLevelBudget":
			// Both split eps exactly over the levels: the slice sums to eps.
			var out []ev
			for _, le := range vr.evalList(call.Args, st) {
				if len(le.vals) >= 1 && le.vals[0].kind == vNum {
					out = append(out, ev{v: sliceVal(le.vals[0].r), st: le.st})
				} else {
					vr.abort(call, "cannot track the budget passed to %s", callee.Name())
				}
			}
			return out, true
		case "MeasureInto":
			return vr.treeMeasureCall(call, st), true
		}
	case "fmt":
		if callee.Name() == "Errorf" {
			return vr.errorResult(call, st), true
		}
	case "errors":
		if callee.Name() == "New" {
			return vr.errorResult(call, st), true
		}
	}
	return nil, false
}

func (vr *verifier) errorResult(call *ast.CallExpr, st *state) []ev {
	var out []ev
	for _, le := range vr.evalList(call.Args, st) {
		out = append(out, ev{v: errVal(triTrue), st: le.st})
	}
	return out
}

// treeMeasureCall models Flat.MeasureInto: each tree level is one parallel
// scope under its level label charged epsByLevel[d], so the whole call costs
// sum(epsByLevel) sequentially.
func (vr *verifier) treeMeasureCall(call *ast.CallExpr, st *state) []ev {
	var out []ev
	for _, le := range vr.evalList(call.Args, st) {
		var meterKey string
		var budget value
		budgetSet := false
		for i, a := range call.Args {
			t, ok := vr.pass.TypesInfo.Types[a]
			if !ok || t.Type == nil {
				continue
			}
			if isMeterType(t.Type) {
				if le.vals[i].kind != vMeter {
					vr.abort(call, "cannot resolve the meter passed to a tree measurement")
				}
				meterKey = le.vals[i].meter
			}
			if s, isSlice := t.Type.Underlying().(*types.Slice); isSlice && isFloatType(s.Elem()) {
				budget = le.vals[i] // last []float64 arg is epsByLevel
				budgetSet = true
			}
		}
		if meterKey == "" {
			vr.abort(call, "tree measurement without a resolvable meter")
		}
		if !budgetSet || budget.kind != vSlice || !budget.sumKnown {
			vr.abort(call, "cannot bound the level budget of a tree measurement")
		}
		ms := le.st.meterAt(meterKey)
		ms.addSeq(budget.sum)
		vr.chargeLabel(call, "Flat.MeasureInto", call.Pos(), value{kind: vStr, family: treeLevelFamily}, ms.isRoot)
		out = append(out, ev{v: opaqueVal(), st: le.st})
	}
	return out
}

// --- inlining ---

func (vr *verifier) inlineCall(call *ast.CallExpr, decl *ast.FuncDecl, st *state) []ev {
	if vr.inlining[decl] {
		return vr.recursiveCall(call, decl, st)
	}
	vr.inlining[decl] = true
	defer delete(vr.inlining, decl)
	vr.depth++
	if vr.depth > 12 {
		vr.abort(call, "inline depth exceeded at %s", decl.Name.Name)
	}
	defer func() { vr.depth-- }()
	recvEvs := []ev{{st: st}}
	if decl.Recv != nil {
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			vr.abort(call, "method expression calls are not supported")
		}
		recvEvs = vr.eval(sel.X, st)
	}
	var out []ev
	for _, re := range recvEvs {
		for _, le := range vr.evalList(call.Args, re.st) {
			out = append(out, vr.runInline(call, decl, re.v, le.vals, le.st)...)
		}
	}
	return out
}

func (vr *verifier) dynamicCall(call *ast.CallExpr, sel *ast.SelectorExpr, st *state) ([]ev, bool) {
	// Only meaningful for selector calls whose receiver we track as a struct.
	probe := vr.eval(sel.X, st)
	if len(probe) == 0 || probe[0].v.kind != vStruct || probe[0].v.typ == nil {
		return nil, false
	}
	var out []ev
	matched := false
	for _, re := range probe {
		if re.v.kind != vStruct || re.v.typ == nil {
			continue
		}
		decl := vr.methodDecl(re.v.typ, sel.Sel.Name)
		if decl == nil {
			continue
		}
		matched = true
		if vr.inlining[decl] {
			out = append(out, vr.recursiveCall(call, decl, re.st)...)
			continue
		}
		vr.inlining[decl] = true
		vr.depth++
		if vr.depth > 12 {
			vr.abort(call, "inline depth exceeded at %s", decl.Name.Name)
		}
		for _, le := range vr.evalList(call.Args, re.st) {
			out = append(out, vr.runInline(call, decl, re.v, le.vals, le.st)...)
		}
		vr.depth--
		delete(vr.inlining, decl)
	}
	return out, matched
}

// recursiveCall handles a call back into a function already being inlined.
// Charge-free recursion is sound to treat as an opaque value (no meter can
// change); charging recursion must carry a //dp:spends annotation, which is
// consumed as an event before ever reaching here.
func (vr *verifier) recursiveCall(call *ast.CallExpr, decl *ast.FuncDecl, st *state) []ev {
	if obj := vr.pass.TypesInfo.Defs[decl.Name]; obj != nil && vr.touches[obj] {
		vr.abort(call, "recursive charging function %s needs a //dp:spends annotation", decl.Name.Name)
	}
	for _, a := range call.Args {
		if t, ok := vr.pass.TypesInfo.Types[a]; ok && t.Type != nil && isMeterType(t.Type) {
			vr.abort(call, "meter passed to recursive call of %s", decl.Name.Name)
		}
	}
	var out []ev
	for _, le := range vr.evalList(call.Args, st) {
		out = append(out, ev{v: vr.memoValue(call, le.st), st: le.st})
	}
	return out
}

func (vr *verifier) methodDecl(tn *types.TypeName, name string) *ast.FuncDecl {
	for obj, decl := range vr.decls {
		if decl.Recv == nil || obj.Name() != name {
			continue
		}
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil {
			continue
		}
		if rn := namedStruct(sig.Recv().Type()); rn == tn {
			return decl
		}
	}
	return nil
}

func (vr *verifier) runInline(call *ast.CallExpr, decl *ast.FuncDecl, recv value, args []value, st *state) []ev {
	fr := &frame{fn: decl, vars: map[types.Object]value{}}
	if decl.Recv != nil && len(decl.Recv.List) == 1 && len(decl.Recv.List[0].Names) == 1 {
		if obj := vr.pass.TypesInfo.Defs[decl.Recv.List[0].Names[0]]; obj != nil {
			fr.vars[obj] = recv
		}
	}
	i := 0
	for _, field := range decl.Type.Params.List {
		for _, name := range field.Names {
			obj := vr.pass.TypesInfo.Defs[name]
			if obj == nil {
				i++
				continue
			}
			if i < len(args) {
				fr.vars[obj] = args[i]
			} else {
				fr.vars[obj] = vr.freshTyped(obj.Type(), obj.Name())
			}
			i++
		}
	}
	if decl.Type.Results != nil {
		for _, field := range decl.Type.Results.List {
			for _, name := range field.Names {
				if obj := vr.pass.TypesInfo.Defs[name]; obj != nil {
					fr.results = append(fr.results, obj)
					fr.vars[obj] = vr.zeroValue(obj.Type())
				}
			}
		}
	}
	st.frames = append(st.frames, fr)
	outs := vr.block(decl.Body.List, st)
	var out []ev
	for _, o := range outs {
		inner := o.st.top()
		vr.applyDefers(inner, o.st, call)
		o.st.frames = o.st.frames[:len(o.st.frames)-1]
		var v value
		switch {
		case o.ctl == ctlReturn && len(o.results) == 1:
			v = o.results[0]
		case o.ctl == ctlReturn && len(o.results) > 1:
			v = tupleVal(o.results...)
		default:
			if tv, ok := vr.pass.TypesInfo.Types[call]; ok && tv.Type != nil {
				v = vr.freshTyped(tv.Type, decl.Name.Name)
			} else {
				v = opaqueVal()
			}
		}
		out = append(out, ev{v: v, st: o.st})
	}
	return out
}

// --- meter operations ---

type spendSig struct {
	epsArg int
	par    bool
	ret    byte // f float, i int, b bool(poison-on-false), v void, s slice
}

var spendOps = map[string]spendSig{
	"Laplace":              {2, false, 'f'},
	"LaplacePar":           {2, true, 'f'},
	"LaplaceVec":           {3, false, 's'},
	"LaplaceVecInto":       {4, false, 's'},
	"LaplaceVecParInto":    {4, true, 's'},
	"LaplaceMechanism":     {3, false, 's'},
	"LaplaceMechanismInto": {4, false, 's'},
	"Geometric":            {2, false, 'i'},
	"ExpMech":              {3, false, 'i'},
	"ExpMechPar":           {3, true, 'i'},
	"ExpMechBuf":           {3, false, 'i'},
	"ExpMechBufPar":        {3, true, 'i'},
	"ExpMechGumbels":       {2, false, 'b'},
	"Charge":               {1, false, 'v'},
	"ChargePar":            {1, true, 'v'},
}

// labelArg returns the index of Meter method name's ledger-label argument:
// every spend and sub-meter opener takes the label first, ResetSub after the
// sub-meter it re-initializes.
func labelArg(name string) (int, bool) {
	if _, spend := spendOps[name]; spend || meterapi.SubMethods[name] {
		return 0, true
	}
	return 1, name == "ResetSub"
}

func (vr *verifier) meterOp(name string, call *ast.CallExpr, st *state) []ev {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		vr.abort(call, "meter method expression is not supported")
	}
	var out []ev
	for _, re := range vr.eval(sel.X, st) {
		if re.v.kind != vMeter {
			vr.abort(call, "cannot resolve the meter receiver of %s", name)
		}
		for _, le := range vr.evalList(call.Args, re.st) {
			out = append(out, vr.applyMeterOp(name, call, re.v.meter, le.vals, le.st))
		}
	}
	return out
}

func (vr *verifier) applyMeterOp(name string, call *ast.CallExpr, key string, vals []value, st *state) ev {
	ms := st.meterAt(key)
	if sig, ok := spendOps[name]; ok {
		if sig.epsArg >= len(vals) || vals[sig.epsArg].kind != vNum {
			vr.abort(call, "cannot track the epsilon passed to %s", name)
		}
		amount := vals[sig.epsArg].r
		if sig.par {
			ck, pe, ok := parKeyOf(vals[0], amount, vr.at)
			if !ok {
				vr.abort(call, "non-constant label passed to parallel spend %s", name)
			}
			if ms.addPar(ck, pe) {
				vr.report(call, "parallel scope %s is charged twice with different amounts on one path", fmtChargeKey(ck))
			}
		} else {
			ms.addSeq(amount)
		}
		vr.chargeLabel(call, "Meter."+name, call.Args[0].Pos(), vals[0], ms.isRoot)
		return ev{v: vr.spendResult(sig.ret, call, st), st: st}
	}
	switch name {
	case "Sub", "SubEps", "SubParEps":
		label := vals[0]
		if label.kind != vStr || !label.sConst {
			vr.abort(call, "non-constant label passed to %s", name)
		}
		if vals[1].kind != vNum {
			vr.abort(call, "cannot track the budget passed to %s", name)
		}
		budget := vals[1].r
		if name == "Sub" {
			budget = ratMul(budget, ms.budget)
		}
		vr.chargeLabel(call, "Meter."+name, call.Args[0].Pos(), label, ms.isRoot)
		sub := newMeterState(budget, false)
		sub.label, sub.parent, sub.parallel = label.s, key, name == "SubParEps"
		subKey := vr.freshStem("sub:" + label.s)
		st.setMeter(subKey, sub)
		return ev{v: value{kind: vMeter, meter: subKey, bAtom: -1}, st: st}
	case "ResetSub":
		if vals[0].kind != vMeter {
			vr.abort(call, "cannot resolve the sub-meter passed to ResetSub")
		}
		subKey := vals[0].meter
		if old, ok := st.meters[subKey]; ok && !old.closed && !old.total().isZero() {
			vr.report(call, "ResetSub reuses sub-meter %q while it still holds unclosed spend %s", old.label, old.total().render(vr.at))
		}
		if vals[1].kind != vStr || !vals[1].sConst {
			vr.abort(call, "non-constant label passed to ResetSub")
		}
		vr.chargeLabel(call, "Meter.ResetSub", call.Args[1].Pos(), vals[1], ms.isRoot)
		if vals[2].kind != vNum {
			vr.abort(call, "cannot track the budget passed to ResetSub")
		}
		par, ok := boolConstOf(vals[3])
		if !ok {
			vr.abort(call, "cannot resolve the parallel flag passed to ResetSub")
		}
		sub := newMeterState(vals[2].r, false)
		sub.label, sub.parent, sub.parallel = vals[1].s, key, par
		st.setMeter(subKey, sub)
		return ev{v: opaqueVal(), st: st}
	case "Close":
		vr.closeMeter(key, st, call)
		return ev{v: opaqueVal(), st: st}
	case "Err":
		if st.poisoned {
			return ev{v: errVal(triTrue), st: st}
		}
		return ev{v: errVal(triFalse), st: st}
	case "Total":
		return ev{v: numVal(ms.budget), st: st}
	case "Spent":
		return ev{v: numVal(ms.total()), st: st}
	case "Release", "SetSampler":
		return ev{v: opaqueVal(), st: st}
	case "Sampler", "Rand", "Ledger", "Audited":
		return ev{v: vr.memoValue(call, st), st: st}
	}
	vr.abort(call, "unmodeled meter method %s", name)
	return ev{}
}

func boolConstOf(v value) (bool, bool) {
	if v.kind == vBool && v.bSet {
		return v.b, true
	}
	return false, false
}

func parKeyOf(label value, amount rat, at *atoms) (chargeKey, parEntry, bool) {
	if label.kind != vStr {
		return chargeKey{}, parEntry{}, false
	}
	if label.sConst {
		return chargeKey{label: label.s}, parEntry{amount: amount}, true
	}
	if label.family != "" && label.famIdxOK {
		return chargeKey{family: label.family, idx: label.famIdx.render(at)},
			parEntry{amount: amount, fam: true, idx: label.famIdx}, true
	}
	return chargeKey{}, parEntry{}, false
}

func (vr *verifier) spendResult(ret byte, call *ast.CallExpr, st *state) value {
	switch ret {
	case 'f':
		return numVal(ratAtom(vr.at.fresh("noise", false)))
	case 'i':
		id := vr.at.fresh("draw", true)
		st.cons.addLower(id, 0, false, true)
		return numVal(ratAtom(id))
	case 'b':
		return value{kind: vBool, bAtom: vr.at.fresh("b:gumbel", false), poisonOnFalse: true}
	case 's':
		return opaqueSlice(triTrue)
	}
	return opaqueVal()
}

// closeMeter charges a sub-meter's spent total (plus its pending annotated
// charges) into its parent, sequentially or as one parallel scope.
func (vr *verifier) closeMeter(key string, st *state, at ast.Node) {
	ms, ok := st.meters[key]
	if !ok || ms.closed || ms.isRoot {
		return
	}
	ms.closed = true
	parent, ok := st.meters[ms.parent]
	if !ok {
		return
	}
	spent := ratAdd(ms.total(), vr.consumeAnnEvents(st, key))
	if ms.parallel {
		if parent.addPar(chargeKey{label: ms.label}, parEntry{amount: spent}) {
			vr.report(at, "parallel sub-meter %q closes with different totals on one path", ms.label)
		}
	} else {
		parent.addSeq(spent)
	}
}

// consumeAnnEvents folds and removes the pending //dp:spends call events
// charged against one meter: parallel-annotated calls with identical
// annotation arguments count once; sequential ones sum.
func (vr *verifier) consumeAnnEvents(st *state, meterKey string) rat {
	total := ratZero()
	seen := map[string]bool{}
	var rest []annEvent
	for _, e := range st.annEvents {
		if e.meterKey != meterKey {
			rest = append(rest, e)
			continue
		}
		if e.par {
			k := e.fn.Name() + "|" + e.argsKey
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		total = ratAdd(total, e.amount)
	}
	st.annEvents = rest
	return total
}

// annCall records a call to a //dp:spends-annotated function instead of
// inlining it: the annotation's symbolic value is charged at scope end.
func (vr *verifier) annCall(call *ast.CallExpr, callee types.Object, anno *spendAnno, st *state) []ev {
	decl := vr.decls[callee]
	if decl == nil {
		vr.abort(call, "//dp:spends on a function without a body")
	}
	recvEvs := []ev{{st: st}}
	if decl.Recv != nil {
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			vr.abort(call, "method expression calls are not supported")
		}
		recvEvs = vr.eval(sel.X, st)
	}
	var out []ev
	for _, re := range recvEvs {
		for _, le := range vr.evalList(call.Args, re.st) {
			env := vr.spendEnv(decl, re.v, le.vals)
			amount, ok := vr.evalSpendExpr(anno.expr, env, le.st)
			if !ok {
				vr.abort(call, "cannot evaluate //dp:spends expression %q at this call", anno.raw)
			}
			meterKey := ""
			for i, a := range call.Args {
				if t, ok := vr.pass.TypesInfo.Types[a]; ok && t.Type != nil && isMeterType(t.Type) {
					if le.vals[i].kind != vMeter {
						vr.abort(call, "cannot resolve the meter passed to %s", callee.Name())
					}
					meterKey = le.vals[i].meter
				}
			}
			if meterKey == "" {
				vr.abort(call, "//dp:spends function %s takes no meter argument", callee.Name())
			}
			vr.callsAnnotated(callee)
			le.st.annEvents = append(le.st.annEvents, annEvent{
				fn: callee, meterKey: meterKey, par: anno.par,
				amount: amount, argsKey: amount.render(vr.at), pos: call,
			})
			var v value
			if tv, ok := vr.pass.TypesInfo.Types[call]; ok && tv.Type != nil {
				v = vr.freshTyped(tv.Type, callee.Name())
			} else {
				v = opaqueVal()
			}
			out = append(out, ev{v: v, st: le.st})
		}
	}
	return out
}

// spendEnv builds the name environment for evaluating a function-level
// //dp:spends expression at a call site: parameters and the receiver.
func (vr *verifier) spendEnv(decl *ast.FuncDecl, recv value, args []value) map[string]value {
	env := map[string]value{}
	if decl.Recv != nil && len(decl.Recv.List) == 1 && len(decl.Recv.List[0].Names) == 1 {
		env[decl.Recv.List[0].Names[0].Name] = recv
	}
	i := 0
	for _, field := range decl.Type.Params.List {
		for _, name := range field.Names {
			if i < len(args) {
				env[name.Name] = args[i]
			}
			i++
		}
	}
	return env
}
