package epsflow

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math/big"

	"dpbench/internal/analysis/meterapi"
)

// ev is one forked result of evaluating an expression: inlined same-package
// calls (clamps, budget splits) branch in expression position, so every
// evaluation returns a list of (value, specialized state) pairs.
type ev struct {
	v  value
	st *state
}

// listEv is one forked result of evaluating an expression list.
type listEv struct {
	vals []value
	st   *state
}

func (vr *verifier) evalList(exprs []ast.Expr, st *state) []listEv {
	acc := []listEv{{st: st}}
	for _, e := range exprs {
		var next []listEv
		for _, le := range acc {
			for _, x := range vr.eval(e, le.st) {
				vals := append(append([]value{}, le.vals...), x.v)
				next = append(next, listEv{vals: vals, st: x.st})
			}
		}
		acc = next
	}
	return acc
}

func one(v value, st *state) []ev { return []ev{{v: v, st: st}} }

// eval evaluates e on every path it forks into. A constant or labelTable
// label records where it was written, so a label finding points at the
// expression that chose the label rather than at the helper that forwarded
// it to the spend.
func (vr *verifier) eval(e ast.Expr, st *state) []ev {
	if tv, ok := vr.pass.TypesInfo.Types[e]; ok {
		if tv.IsNil() {
			return one(nilVal(), st)
		}
		if tv.Value != nil {
			if v, ok := constValue(tv.Value); ok {
				v.at = e.Pos()
				return one(v, st)
			}
		}
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return vr.eval(e.X, st)
	case *ast.StarExpr:
		return vr.eval(e.X, st)
	case *ast.Ident:
		return vr.evalIdent(e, st)
	case *ast.SelectorExpr:
		return vr.evalSelector(e, st)
	case *ast.CallExpr:
		return vr.evalCall(e, st)
	case *ast.UnaryExpr:
		return vr.evalUnary(e, st)
	case *ast.BinaryExpr:
		return vr.evalBinary(e, st)
	case *ast.IndexExpr:
		return vr.evalIndex(e, st)
	case *ast.SliceExpr:
		return vr.evalSlice(e, st)
	case *ast.TypeAssertExpr:
		return vr.evalAssert(e, st)
	case *ast.CompositeLit:
		return vr.evalComposite(e, st)
	case *ast.FuncLit:
		if vr.touchesNode(e.Body) {
			vr.abort(e, "function literal with budget charges is not supported")
		}
		return one(value{kind: vFunc, bAtom: -1}, st)
	}
	return one(vr.memoValue(e, st), st)
}

// constValue converts a go/constant value to an abstract value exactly.
func constValue(cv constant.Value) (value, bool) {
	switch cv.Kind() {
	case constant.Bool:
		return boolConst(constant.BoolVal(cv)), true
	case constant.String:
		return strVal(constant.StringVal(cv)), true
	case constant.Int, constant.Float:
		switch x := constant.Val(cv).(type) {
		case int64:
			return numVal(rat{num: polyConst(big.NewRat(x, 1))}), true
		case *big.Int:
			return numVal(rat{num: polyConst(new(big.Rat).SetInt(x))}), true
		case *big.Rat:
			return numVal(rat{num: polyConst(x)}), true
		case *big.Float:
			if r, _ := x.Rat(nil); r != nil {
				return numVal(rat{num: polyConst(r)}), true
			}
		}
	}
	return value{}, false
}

func (vr *verifier) evalIdent(id *ast.Ident, st *state) []ev {
	obj := vr.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = vr.pass.TypesInfo.Defs[id]
	}
	if obj == nil {
		return one(opaqueVal(), st)
	}
	if v, ok := st.lookup(obj); ok {
		return one(v, st)
	}
	if fam, ok := vr.families[obj]; ok {
		return one(fam, st)
	}
	// A package-level variable: memoized unknown (stable within a path).
	key := "pkgvar:" + obj.Name()
	if v, ok := st.memo[key]; ok {
		return one(v, st)
	}
	v := vr.freshTyped(obj.Type(), obj.Name())
	st.memo[key] = v
	return one(v, st)
}

func (vr *verifier) evalSelector(sel *ast.SelectorExpr, st *state) []ev {
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := vr.pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
			return one(vr.memoValue(sel, st), st)
		}
	}
	if _, isFn := vr.pass.TypesInfo.Uses[sel.Sel].(*types.Func); isFn {
		return one(value{kind: vFunc, bAtom: -1}, st) // method value
	}
	var out []ev
	for _, b := range vr.eval(sel.X, st) {
		out = append(out, ev{v: vr.readField(b.v, sel, b.st), st: b.st})
	}
	return out
}

func (vr *verifier) readField(base value, sel *ast.SelectorExpr, st *state) value {
	name := sel.Sel.Name
	if base.kind == vStruct {
		if v, ok := base.fields[name]; ok {
			return v
		}
		obj := vr.pass.TypesInfo.Uses[sel.Sel]
		var t types.Type
		if obj != nil {
			t = obj.Type()
		}
		if base.lazyStem != "" && t != nil {
			fv := vr.lazyField(base.lazyStem, name, t)
			vr.setField(sel, fv, st)
			return fv
		}
		if t != nil {
			return vr.zeroValue(t)
		}
		return opaqueVal()
	}
	return vr.memoValue(sel, st)
}

// lazyField materializes an unknown struct instance's field as a named atom.
// Keys are interned by "stem.field", which is what makes Plan and Execute
// agree on the receiver fields they share.
func (vr *verifier) lazyField(stem, name string, t types.Type) value {
	key := stem + "." + name
	switch {
	case isFloatType(t):
		return numVal(ratAtom(vr.at.intern(key, false)))
	case isIntType(t):
		return numVal(ratAtom(vr.at.intern(key, true)))
	case isBoolType(t):
		return value{kind: vBool, bAtom: vr.at.intern("b:"+key, false)}
	case isMeterType(t):
		return value{kind: vMeter, meter: key, bAtom: -1}
	case isErrorType(t):
		return errVal(triUnknown)
	}
	if tn := namedStruct(t); tn != nil {
		return structVal(tn, key)
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		return opaqueSlice(triUnknown)
	case *types.Basic:
		return value{kind: vStr, bAtom: -1}
	}
	return opaqueVal()
}

// memoValue models an opaque pure expression: the same expression text reads
// the same unknown within one path.
func (vr *verifier) memoValue(e ast.Expr, st *state) value {
	key := types.ExprString(e)
	if v, ok := st.memo[key]; ok {
		return v
	}
	var t types.Type
	if tv, ok := vr.pass.TypesInfo.Types[e]; ok {
		t = tv.Type
	}
	v := vr.freshTyped(t, stemOf(key))
	if v.kind == vNum && sizeQuery(e) {
		// Same rationale as lenValue: dimension getters (workload query
		// counts, domain sizes, tree heights) are validated positive at Plan
		// entry, and they feed trip counts and budget divisions. An
		// unconstrained atom here manufactures an unreachable zero-size path
		// that under-spends by construction.
		if id, c1, c0, ok := v.r.linearAtom(); ok && id >= 0 && c0.Sign() == 0 && c1.Sign() > 0 {
			st.cons.addLower(id, 1, false, true)
		}
	}
	st.memo[key] = v
	return v
}

// sizeQuery reports whether e is a no-argument dimension-getter method call.
func sizeQuery(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "N", "K", "Size", "Len", "Count", "Height":
		return true
	}
	return false
}

func stemOf(key string) string {
	if len(key) > 24 {
		key = key[:24]
	}
	return key
}

func (vr *verifier) freshStem(stem string) string {
	vr.stems++
	return fmt.Sprintf("%s#s%d", stem, vr.stems)
}

func (vr *verifier) freshTyped(t types.Type, stem string) value {
	if t == nil {
		return opaqueVal()
	}
	if tup, ok := t.(*types.Tuple); ok {
		vs := make([]value, tup.Len())
		for i := range vs {
			vs[i] = vr.freshTyped(tup.At(i).Type(), fmt.Sprintf("%s.%d", stem, i))
		}
		return tupleVal(vs...)
	}
	switch {
	case isFloatType(t):
		return numVal(ratAtom(vr.at.fresh(stem, false)))
	case isIntType(t):
		return numVal(ratAtom(vr.at.fresh(stem, true)))
	case isBoolType(t):
		return value{kind: vBool, bAtom: vr.at.fresh("b:"+stem, false)}
	case isMeterType(t):
		return value{kind: vMeter, meter: vr.freshStem("meter:" + stem), bAtom: -1}
	case isErrorType(t):
		return errVal(triUnknown)
	}
	if tn := namedStruct(t); tn != nil {
		return structVal(tn, vr.freshStem(stem))
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return opaqueSlice(triUnknown)
	case *types.Basic:
		if u.Info()&types.IsString != 0 {
			return value{kind: vStr, bAtom: -1}
		}
	}
	return opaqueVal()
}

func (vr *verifier) zeroValue(t types.Type) value {
	if t == nil {
		return opaqueVal()
	}
	switch {
	case isFloatType(t) || isIntType(t):
		return numVal(ratZero())
	case isBoolType(t):
		return boolConst(false)
	case isErrorType(t):
		return errVal(triFalse)
	}
	if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
		return nilVal()
	}
	if tn := namedStruct(t); tn != nil {
		return structVal(tn, "")
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return value{kind: vSlice, sum: ratZero(), sumKnown: true, nonNil: triFalse, bAtom: -1}
	case *types.Basic:
		if u.Info()&types.IsString != 0 {
			return strVal("")
		}
	case *types.Interface:
		return nilVal()
	}
	return opaqueVal()
}

// --- type predicates ---

func isFloatType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isIntType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsUnsigned) != 0
}

func isBoolType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsBoolean != 0
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}

func isMeterType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Meter" && obj.Pkg() != nil && obj.Pkg().Path() == meterapi.PkgPath
}

// namedStruct returns the type name when t is a (pointer to a) named struct.
func namedStruct(t types.Type) *types.TypeName {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := n.Underlying().(*types.Struct); !ok {
		return nil
	}
	return n.Obj()
}

// --- operators ---

func (vr *verifier) evalUnary(e *ast.UnaryExpr, st *state) []ev {
	switch e.Op {
	case token.AND, token.ADD:
		return vr.eval(e.X, st)
	case token.SUB:
		var out []ev
		for _, x := range vr.eval(e.X, st) {
			if x.v.kind == vNum {
				out = append(out, ev{v: numVal(ratNeg(x.v.r)), st: x.st})
			} else {
				out = append(out, ev{v: vr.memoValue(e, x.st), st: x.st})
			}
		}
		return out
	case token.NOT:
		var out []ev
		for _, x := range vr.eval(e.X, st) {
			if x.v.kind == vBool && x.v.bSet {
				out = append(out, ev{v: boolConst(!x.v.b), st: x.st})
			} else {
				out = append(out, ev{v: value{kind: vBool, bAtom: -1}, st: x.st})
			}
		}
		return out
	}
	var out []ev
	for _, x := range vr.eval(e.X, st) {
		out = append(out, ev{v: vr.memoValue(e, x.st), st: x.st})
	}
	return out
}

func (vr *verifier) evalBinary(e *ast.BinaryExpr, st *state) []ev {
	switch e.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO, token.REM:
		var out []ev
		for _, x := range vr.eval(e.X, st) {
			for _, y := range vr.eval(e.Y, x.st) {
				out = append(out, ev{v: vr.binNum(e.Op, x.v, y.v, e, y.st), st: y.st})
			}
		}
		return out
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
		token.LAND, token.LOR:
		// Comparison or logical op in value position: resolve via the
		// condition machinery, yielding a constant per specialized state.
		ts, fs := vr.cond(e, st)
		var out []ev
		for _, t := range ts {
			out = append(out, ev{v: boolConst(true), st: t})
		}
		for _, f := range fs {
			out = append(out, ev{v: boolConst(false), st: f})
		}
		return out
	}
	var out []ev
	for _, le := range vr.evalList([]ast.Expr{e.X, e.Y}, st) {
		out = append(out, ev{v: vr.memoValue(e, le.st), st: le.st})
	}
	return out
}

func (vr *verifier) binNum(op token.Token, x, y value, e ast.Node, st *state) value {
	if x.kind == vStr && y.kind == vStr && op == token.ADD {
		if x.sConst && y.sConst {
			return strVal(x.s + y.s)
		}
		return value{kind: vStr, bAtom: -1}
	}
	if x.kind != vNum || y.kind != vNum {
		var t types.Type
		if ex, ok := e.(ast.Expr); ok {
			if tv, ok := vr.pass.TypesInfo.Types[ex]; ok {
				t = tv.Type
			}
		}
		return vr.freshTyped(t, "bin")
	}
	intExpr := false
	if ex, ok := e.(ast.Expr); ok {
		if tv, ok := vr.pass.TypesInfo.Types[ex]; ok && tv.Type != nil {
			intExpr = isIntType(tv.Type)
		}
	}
	switch op {
	case token.ADD:
		return numVal(ratAdd(x.r, y.r))
	case token.SUB:
		return numVal(ratSub(x.r, y.r))
	case token.MUL:
		return numVal(ratMul(x.r, y.r))
	case token.QUO:
		if intExpr {
			return vr.intQuo(x.r, y.r, st)
		}
		if q, ok := ratDiv(x.r, y.r); ok {
			return q2num(q)
		}
		return numVal(ratAtom(vr.at.fresh("div0", false)))
	case token.REM:
		id := vr.at.fresh("rem", true)
		st.cons.addLower(id, 0, false, true)
		return numVal(ratAtom(id))
	}
	return opaqueVal()
}

func q2num(r rat) value { return numVal(r) }

// intQuo models integer division x/y as a fresh count, proving the bounds
// the budget math needs: >= 1 when x >= y > 0, else >= 0 when x >= 0.
func (vr *verifier) intQuo(x, y rat, st *state) value {
	// Exact case first: when y divides x symbolically, keep the quotient.
	if q, ok := ratDiv(x, y); ok {
		if c, isConst := q.isConst(); isConst && c.IsInt() {
			return numVal(q)
		}
	}
	id := vr.at.fresh("quot", true)
	xs := st.cons.substPoints(x, vr.at)
	ys := st.cons.substPoints(y, vr.at)
	if st.cons.cmpZero(ys, vr.at, ">") == triTrue &&
		st.cons.cmpZero(ratSub(xs, ys), vr.at, ">=") == triTrue {
		st.cons.addLower(id, 1, false, true)
	} else if st.cons.cmpZero(xs, vr.at, ">=") == triTrue {
		st.cons.addLower(id, 0, false, true)
	}
	return numVal(ratAtom(id))
}

func (vr *verifier) evalIndex(e *ast.IndexExpr, st *state) []ev {
	var out []ev
	for _, b := range vr.eval(e.X, st) {
		if b.v.kind == vLabels {
			for _, ix := range vr.eval(e.Index, b.st) {
				if ix.v.kind == vNum {
					out = append(out, ev{v: value{kind: vStr, family: b.v.family, famIdx: ix.v.r, famIdxOK: true, at: e.Pos()}, st: ix.st})
				} else {
					out = append(out, ev{v: value{kind: vStr, bAtom: -1}, st: ix.st})
				}
			}
			continue
		}
		out = append(out, ev{v: vr.memoValue(e, b.st), st: b.st})
	}
	return out
}

func (vr *verifier) evalSlice(e *ast.SliceExpr, st *state) []ev {
	emptyHigh := false
	if e.High != nil {
		if tv, ok := vr.pass.TypesInfo.Types[e.High]; ok && tv.Value != nil {
			if c, ok := constant.Int64Val(tv.Value); ok && c == 0 {
				emptyHigh = e.Low == nil
			}
		}
	}
	var out []ev
	for _, b := range vr.eval(e.X, st) {
		v := b.v
		if emptyHigh {
			out = append(out, ev{v: sliceVal(ratZero()), st: b.st})
			continue
		}
		if v.kind == vSlice {
			v.sumKnown = false
		}
		out = append(out, ev{v: v, st: b.st})
	}
	return out
}

func (vr *verifier) evalAssert(e *ast.TypeAssertExpr, st *state) []ev {
	var out []ev
	for _, b := range vr.eval(e.X, st) {
		if b.v.kind == vStruct {
			out = append(out, ev{v: b.v, st: b.st})
			continue
		}
		key := "assert:" + types.ExprString(e)
		if v, ok := b.st.memo[key]; ok {
			out = append(out, ev{v: v, st: b.st})
			continue
		}
		var t types.Type
		if tv, ok := vr.pass.TypesInfo.Types[e]; ok {
			t = tv.Type
		}
		var v value
		if tn := namedStruct(t); tn != nil {
			v = structVal(tn, vr.freshStem(tn.Name()))
		} else {
			v = vr.freshTyped(t, "assert")
		}
		b.st.memo[key] = v
		out = append(out, ev{v: v, st: b.st})
	}
	return out
}

func (vr *verifier) evalComposite(e *ast.CompositeLit, st *state) []ev {
	var t types.Type
	if tv, ok := vr.pass.TypesInfo.Types[e]; ok {
		t = tv.Type
	}
	if tn := namedStruct(t); tn != nil {
		acc := []ev{{v: structVal(tn, ""), st: st}}
		for _, elt := range e.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				return vr.positionalComposite(e, tn, st)
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			var next []ev
			for _, a := range acc {
				for _, x := range vr.eval(kv.Value, a.st) {
					next = append(next, ev{v: a.v.withField(key.Name, x.v), st: x.st})
				}
			}
			acc = next
		}
		return acc
	}
	if t != nil {
		if _, ok := t.Underlying().(*types.Slice); ok {
			sum := ratZero()
			known := true
			cur := []ev{{v: opaqueVal(), st: st}}
			for _, elt := range e.Elts {
				var next []ev
				for _, a := range cur {
					for _, x := range vr.eval(elt, a.st) {
						if x.v.kind == vNum {
							sum = ratAdd(sum, x.v.r)
						} else {
							known = false
						}
						next = append(next, ev{v: a.v, st: x.st})
					}
				}
				cur = next
			}
			var out []ev
			for _, a := range cur {
				if known {
					out = append(out, ev{v: sliceVal(sum), st: a.st})
				} else {
					out = append(out, ev{v: opaqueSlice(triTrue), st: a.st})
				}
			}
			return out
		}
	}
	return one(opaqueVal(), st)
}

func (vr *verifier) positionalComposite(e *ast.CompositeLit, tn *types.TypeName, st *state) []ev {
	str, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return one(structVal(tn, ""), st)
	}
	acc := []ev{{v: structVal(tn, ""), st: st}}
	for i, elt := range e.Elts {
		if i >= str.NumFields() {
			break
		}
		name := str.Field(i).Name()
		var next []ev
		for _, a := range acc {
			for _, x := range vr.eval(elt, a.st) {
				next = append(next, ev{v: a.v.withField(name, x.v), st: x.st})
			}
		}
		acc = next
	}
	return acc
}
