// Package epsflow verifies each mechanism's epsilon budget symbolically at
// compile time. For every Plan/Execute pair it runs a symbolic abstract
// interpreter over the bodies, tracking every meter charge as a linear
// expression in the declared budget eps, joining over branches, scaling
// loop footprints by symbolic trip counts, and deduplicating parallel
// composition the way the runtime accountant does. The invariant proved is
// the one `-audit` checks per run, promoted to every path at once:
//
//	on every non-exempt path through Execute, the total charged into the
//	meter is exactly eps — the budget Plan was handed.
//
// Exempt paths are the ones the runtime audit also skips: a poisoned meter
// (a draw already failed) or a provably non-nil returned error. Anything
// else that deviates is a finding: over-spend, under-spend (paths that
// silently waste budget), or branch-dependent spend.
//
// Structure-dependent loops and recursion that no abstract trip count can
// close are handled by checked `//dp:spends [par] <expr>` annotations —
// declared, never trusted (see spends.go for the grammar and the
// verification rules).
//
// Inside dpbench/internal/algo the same interpretation checks every ledger
// label a mechanism charges against its CompositionPlan (see labels.go).
//
// The analyzer complements `-audit`: the audit proves the one path a run
// took; epsflow proves all the paths a run could take, including the error
// and early-exit paths no benchmark exercises.
package epsflow

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"dpbench/internal/analysis"
	"dpbench/internal/analysis/meterapi"
)

// Analyzer is the epsflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "epsflow",
	Doc:  "every path through a mechanism's Plan/Execute must charge exactly the declared epsilon, under ledger labels its CompositionPlan declares (symbolic budget verification)",
	Run:  run,
}

// pathBudget bounds the symbolic fork count per verification. Exhausting it
// is a "cannot verify" finding, not silence.
const pathBudget = 8192

// maxMechFindings caps the reports from one mechanism: past a handful, the
// root cause is almost always a single modeling gap repeated per path.
const maxMechFindings = 8

func run(pass *analysis.Pass) error {
	vr := &verifier{
		pass:     pass,
		at:       newAtoms(),
		decls:    map[types.Object]*ast.FuncDecl{},
		touches:  map[types.Object]bool{},
		families: map[types.Object]value{},
		spendFn:  map[types.Object]*spendAnno{},
		spendFor: map[ast.Stmt]*spendAnno{},
		epsID:    -1,
		reported: map[string]bool{},
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					vr.decls[obj] = fd
				}
			}
		}
	}
	if strings.HasPrefix(pass.Pkg.Path(), labelScope) {
		vr.labels = &labelChecker{
			plans:   vr.collectPlans(),
			ann:     map[types.Object]*annSite{},
			reached: map[*ast.CallExpr]bool{},
		}
	}
	vr.collectSpends()
	vr.buildFamilies()
	vr.buildTouches()

	// File order keeps findings deterministic.
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			if anno := vr.spendFn[obj]; anno != nil {
				vr.epsID = -1
				vr.verifyAnnotatedFn(obj, fd, anno)
			}
		}
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if name, ok := mechanismPlan(pass.TypesInfo, fd); ok {
					vr.verifyMechanism(name, fd)
				}
			}
		}
	}
	vr.finishLabels()
	return nil
}

// buildFamilies evaluates the package-var label-table idiom
// (`var splitLabels = labelTable("split", 64)`) so family values resolve
// outside any frame.
func (vr *verifier) buildFamilies() {
	for _, f := range vr.pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != len(vs.Values) {
					continue
				}
				for i, name := range vs.Names {
					call, ok := unparen(vs.Values[i]).(*ast.CallExpr)
					if !ok || len(call.Args) != 2 {
						continue
					}
					callee := vr.calleeObj(call)
					if callee == nil || !vr.isLocalIntrinsic(callee, "labelTable") {
						continue
					}
					prefix, ok1 := meterapi.ConstString(vr.pass.TypesInfo, call.Args[0])
					n, ok2 := constInt(vr.pass.TypesInfo, call.Args[1])
					def := vr.pass.TypesInfo.Defs[name]
					if ok1 && ok2 && def != nil {
						vr.families[def] = labelsVal(prefix, n)
					}
				}
			}
		}
	}
}

func constInt(info *types.Info, e ast.Expr) (int, bool) {
	if tv, ok := info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
		if n, ok := constant.Int64Val(tv.Value); ok {
			return int(n), true
		}
	}
	return 0, false
}

// buildTouches closes the "charges a meter" property over the local call
// graph, so loop bodies that charge only through helpers are recognized.
func (vr *verifier) buildTouches() {
	for changed := true; changed; {
		changed = false
		for obj, decl := range vr.decls {
			if vr.touches[obj] {
				continue
			}
			if vr.touchesNode(decl.Body) {
				vr.touches[obj] = true
				changed = true
			}
		}
	}
}

// mechanismPlan recognizes the mechanism entry-point shape: a method named
// Plan with exactly one float64 parameter (the budget; the data and workload
// ride along untyped for the symbolic run) returning (plan, error).
func mechanismPlan(info *types.Info, fd *ast.FuncDecl) (string, bool) {
	if fd.Name.Name != "Plan" || fd.Recv == nil || fd.Body == nil {
		return "", false
	}
	obj, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return "", false
	}
	sig := obj.Type().(*types.Signature)
	if sig.Results().Len() != 2 || !isErrorType(sig.Results().At(1).Type()) {
		return "", false
	}
	floats := 0
	for i := 0; i < sig.Params().Len(); i++ {
		if isFloatType(sig.Params().At(i).Type()) {
			floats++
		}
	}
	if floats != 1 {
		return "", false
	}
	tn := namedStruct(sig.Recv().Type())
	if tn == nil {
		return "", false
	}
	return tn.Name(), true
}

// verifyMechanism symbolically executes one Plan and, for each feasible plan
// it can produce, the paired Execute, checking every non-exempt path's total
// charge against the declared eps.
func (vr *verifier) verifyMechanism(name string, planDecl *ast.FuncDecl) {
	defer func() {
		if r := recover(); r != nil {
			ae, ok := r.(abortError)
			if !ok {
				panic(r)
			}
			pos := ae.pos
			if pos == token.NoPos {
				pos = planDecl.Pos()
			}
			vr.pass.Reportf(pos, "cannot verify %s: %s", name, ae.msg)
		}
	}()
	vr.budget = pathBudget
	vr.depth = 0
	vr.inlining = map[*ast.FuncDecl]bool{}
	vr.mech = name
	if vr.labels != nil {
		vr.labels.fn = nil
	}
	vr.epsID = vr.at.fresh("eps", false)

	st := &state{cons: newConstraints(), meters: map[string]*meterState{}, memo: map[string]value{}}
	st.cons.addLower(vr.epsID, 0, true, false)
	fr := vr.newFrame(planDecl, func(obj types.Object) (value, bool) {
		if isFloatType(obj.Type()) {
			return numVal(ratAtom(vr.epsID)), true
		}
		return value{}, false
	}, st)
	st.frames = []*frame{fr}

	findings := 0
	for _, o := range vr.block(planDecl.Body.List, st) {
		if o.ctl != ctlReturn || vr.exemptOutcome(o) {
			continue
		}
		if len(o.results) == 0 || o.results[0].kind != vStruct || o.results[0].typ == nil {
			vr.report(o.retPos, "%s.Plan returns a plan epsflow cannot pair with its Execute", name)
			continue
		}
		exDecl := vr.methodDecl(o.results[0].typ, "Execute")
		if exDecl == nil || exDecl.Body == nil {
			vr.report(o.retPos, "%s.Plan returns %s, which has no Execute method to verify", name, o.results[0].typ.Name())
			continue
		}
		vr.runExecute(name, exDecl, o.results[0], o.st, &findings)
		if findings >= maxMechFindings {
			return
		}
	}
}

// runExecute interprets one Execute body against a concrete symbolic plan
// value, with a fresh root meter funded by the declared eps.
func (vr *verifier) runExecute(name string, exDecl *ast.FuncDecl, plan value, st *state, findings *int) {
	es := st.clone()
	es.frames = nil
	rootKey := ""
	fr := vr.newFrame(exDecl, func(obj types.Object) (value, bool) {
		if isMeterType(obj.Type()) && rootKey == "" {
			rootKey = vr.freshStem("meter:" + name)
			es.setMeter(rootKey, newMeterState(ratAtom(vr.epsID), true))
			return value{kind: vMeter, meter: rootKey, bAtom: -1}, true
		}
		return value{}, false
	}, es)
	if exDecl.Recv != nil && len(exDecl.Recv.List) == 1 && len(exDecl.Recv.List[0].Names) == 1 {
		if obj := vr.pass.TypesInfo.Defs[exDecl.Recv.List[0].Names[0]]; obj != nil {
			fr.vars[obj] = plan
		}
	}
	if rootKey == "" {
		vr.report(exDecl, "%s's Execute takes no meter; its spend cannot be verified", name)
		*findings++
		return
	}
	es.frames = []*frame{fr}

	eps := ratAtom(vr.epsID)
	for _, o := range vr.block(exDecl.Body.List, es) {
		if vr.exemptOutcome(o) {
			continue
		}
		at := o.retPos
		if at == nil {
			at = ast.Node(exDecl)
		}
		for _, key := range o.st.mOrder {
			ms := o.st.meters[key]
			if !ms.isRoot && !ms.closed && !ms.total().isZero() {
				vr.report(at, "%s: sub-meter %q is never closed on this path; its spend never reaches the parent or the audit", name, ms.label)
				*findings++
			}
		}
		root, ok := o.st.meters[rootKey]
		if !ok {
			continue
		}
		total := ratAdd(root.total(), vr.consumeAnnEvents(o.st, rootKey))
		cs := o.st.cons
		diff := cs.substPoints(ratSub(total, eps), vr.at)
		if diff.isZero() {
			continue
		}
		*findings++
		tr := cs.substPoints(total, vr.at).render(vr.at)
		switch {
		case cs.cmpZero(diff, vr.at, ">") == triTrue:
			vr.report(at, "%s over-spends: this path charges %s of a declared budget eps", name, tr)
		case cs.cmpZero(diff, vr.at, "<") == triTrue:
			vr.report(at, "%s under-spends: this path charges only %s of a declared budget eps", name, tr)
		default:
			vr.report(at, "%s: this path charges %s, which epsflow cannot prove equal to the declared budget eps", name, tr)
		}
		if *findings >= maxMechFindings {
			return
		}
	}
}

// newFrame binds a function's receiver-less parameters and named results:
// special gives selected parameters their values (the budget, the meter);
// everything else is a fresh typed unknown, with integer parameters seeded
// nonnegative (every count in budget code is).
func (vr *verifier) newFrame(decl *ast.FuncDecl, special func(types.Object) (value, bool), st *state) *frame {
	fr := &frame{fn: decl, vars: map[types.Object]value{}}
	for _, field := range decl.Type.Params.List {
		for _, name := range field.Names {
			obj := vr.pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			if v, ok := special(obj); ok {
				fr.vars[obj] = v
				continue
			}
			v := vr.freshTyped(obj.Type(), obj.Name())
			if isIntType(obj.Type()) && v.kind == vNum {
				if id, _, _, ok := v.r.linearAtom(); ok {
					st.cons.addLower(id, 0, false, true)
				}
			}
			fr.vars[obj] = v
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
	return fr
}
