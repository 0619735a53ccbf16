package epsflow

// Ledger labels. While epsflow verifies mechanism M, every label charged
// into M's audited root meter (a spend's label, a sub-meter's label, the
// "level<d>" labels of Flat.MeasureInto) must be a string constant or a
// labelTable entry that M's CompositionPlan declares, wildcards included.
// Labels charged inside a sub-meter are not checked: they stay in its own
// ledger, which the runtime audit does not match against the plan either.
// A mechanism whose plan is built dynamically, or has none, is left to the
// audit.
//
// Labels inside a //dp:spends-annotated function are checked against every
// mechanism that reaches the function. A spend no verified Plan/Execute
// reaches, and an exported function that forwards a label parameter to a
// spend, are findings: neither can be tied to a plan. The rules apply inside
// dpbench/internal/algo, where the mechanisms live.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dpbench/internal/analysis/meterapi"
)

const labelScope = "dpbench/internal/algo"

// treeLevelFamily is the prefix of tree.LevelLabel, the labels
// Flat.MeasureInto charges its levels under.
const treeLevelFamily = "level"

// labelPlan is the statically extracted label surface of one
// CompositionPlan.
type labelPlan struct {
	labels    map[string]bool
	wildcards []string // prefixes of the entries ending in '*'
	open      bool     // built dynamically: not statically checkable
}

// allows reports whether the plan covers a label, or, for a labelTable
// family, every member prefix+i: then some wildcard must prefix the family's
// own prefix.
func (p *labelPlan) allows(label string, family bool) bool {
	if p.open || !family && p.labels[label] {
		return true
	}
	for _, w := range p.wildcards {
		if strings.HasPrefix(label, w) {
			return true
		}
	}
	return false
}

// labelUse is one label charged into a root meter.
type labelUse struct {
	what  string    // the charging call, e.g. "Meter.Laplace"
	at    token.Pos // its label argument
	label value
}

// annSite is what interpreting one //dp:spends function found: the labels
// it charges, the spend calls interpreted, the annotated functions it
// calls, and the mechanisms whose verification reaches it.
type annSite struct {
	uses   []labelUse
	spends map[*ast.CallExpr]bool
	calls  []types.Object
	mechs  map[string]bool
}

// labelChecker is the ledger-label state of one package.
type labelChecker struct {
	plans   map[string]*labelPlan // by mechanism type name
	fn      types.Object          // annotated function being verified; nil for a mechanism
	ann     map[types.Object]*annSite
	reached map[*ast.CallExpr]bool // spend calls interpreted for some mechanism
}

func (lc *labelChecker) site(fn types.Object) *annSite {
	a := lc.ann[fn]
	if a == nil {
		a = &annSite{spends: map[*ast.CallExpr]bool{}, mechs: map[string]bool{}}
		lc.ann[fn] = a
	}
	return a
}

// chargeLabel records that call charges label (its argument at at) into a
// meter, the root meter when root is set. A mechanism's label is checked at
// once, an annotated function's once the mechanisms reaching it are known.
func (vr *verifier) chargeLabel(call *ast.CallExpr, what string, at token.Pos, label value, root bool) {
	lc := vr.labels
	switch {
	case lc == nil:
	case lc.fn == nil:
		lc.reached[call] = true
		if root {
			vr.checkLabel(vr.mech, labelUse{what, at, label})
		}
	default:
		a := lc.site(lc.fn)
		a.spends[call] = true
		if root {
			a.uses = append(a.uses, labelUse{what, at, label})
		}
	}
}

// callsAnnotated records a call to the annotated function callee.
func (vr *verifier) callsAnnotated(callee types.Object) {
	lc := vr.labels
	switch {
	case lc == nil:
	case lc.fn == nil:
		lc.site(callee).mechs[vr.mech] = true
	default:
		a := lc.site(lc.fn)
		a.calls = append(a.calls, callee)
	}
}

// checkLabel checks one label use against mechanism mech's plan.
func (vr *verifier) checkLabel(mech string, u labelUse) {
	name, family := u.label.s, u.label.family != ""
	switch {
	case family:
		name = u.label.family
	case !u.label.sConst:
		vr.reportAt(u.at, "ledger label passed to %s must be a string constant or labelTable entry so it can be checked against %s's CompositionPlan", u.what, mech)
		return
	}
	if p := vr.labels.plans[mech]; p == nil || p.allows(name, family) {
		return
	}
	at, what := u.label.at, `label "`+name+`"`
	if at == token.NoPos {
		at = u.at
	}
	if family {
		what = `label family "` + name + `*"`
	}
	vr.reportAt(at, "%s is not declared in %s's CompositionPlan: every ledger spend must be covered by its mechanism's declared composition plan", what, mech)
}

// finishLabels runs once every mechanism and annotated function has been
// interpreted: it checks the annotated functions' labels against the
// mechanisms reaching them, reports the spends nothing reached, and checks
// the exported functions for label forwarding.
func (vr *verifier) finishLabels() {
	lc := vr.labels
	if lc == nil {
		return
	}
	// An annotated function called from an annotated function is reached by
	// the caller's mechanisms.
	for changed := true; changed; {
		changed = false
		for _, a := range lc.ann {
			for _, c := range a.calls {
				for m := range a.mechs {
					b := lc.site(c)
					changed = changed || !b.mechs[m]
					b.mechs[m] = true
				}
			}
		}
	}
	for _, a := range lc.ann {
		for m := range a.mechs {
			for _, u := range a.uses {
				vr.checkLabel(m, u)
			}
			for call := range a.spends {
				lc.reached[call] = true
			}
		}
	}
	for _, f := range vr.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || lc.reached[call] {
				return true
			}
			what := ""
			if name, ok := meterapi.MeterMethod(vr.pass.TypesInfo, call); ok {
				if _, spend := spendOps[name]; spend {
					what = "Meter." + name
				}
			} else if vr.isTreeMeasure(call) {
				what = "Flat.MeasureInto"
			}
			if what != "" {
				vr.report(call, "%s is reached by no verified mechanism's Plan/Execute, so neither its budget nor its label is checked", what)
			}
			return true
		})
	}
	vr.checkForwarders()
}

// checkForwarders reports every exported function that passes a parameter
// on as a ledger label, straight to a Meter spend or sub-meter or through
// package functions that do: its callers outside the package would choose
// labels that no mechanism's verification sees.
func (vr *verifier) checkForwarders() {
	info := vr.pass.TypesInfo
	fwd := map[*types.Var]bool{} // parameters that end up as a ledger label
	// labelParams calls f for each argument of a call in decl that ends up as
	// a ledger label and is one of decl's own parameters.
	labelParams := func(decl *ast.FuncDecl, f func(arg ast.Expr, v *types.Var)) {
		params := decl.Type.Params
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var callee *types.Tuple
			if fn, ok := vr.calleeObj(call).(*types.Func); ok {
				callee = fn.Origin().Type().(*types.Signature).Params()
			}
			name, isMeter := meterapi.MeterMethod(info, call)
			li, hasLabel := labelArg(name)
			for i, arg := range call.Args {
				id, ok := unparen(arg).(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := info.Uses[id].(*types.Var)
				isLabel := isMeter && hasLabel && i == li || !isMeter && callee != nil && i < callee.Len() && fwd[callee.At(i)]
				if ok && isLabel && params.Pos() <= v.Pos() && v.Pos() < params.End() {
					f(arg, v)
				}
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, decl := range vr.decls {
			labelParams(decl, func(_ ast.Expr, v *types.Var) {
				changed = changed || !fwd[v]
				fwd[v] = true
			})
		}
	}
	for _, f := range vr.pass.Files {
		for _, d := range f.Decls {
			if decl, ok := d.(*ast.FuncDecl); ok && decl.Body != nil && decl.Name.IsExported() {
				labelParams(decl, func(arg ast.Expr, v *types.Var) {
					vr.report(arg, "%s is exported and forwards its parameter %s to a ledger label: callers outside the package would choose labels no CompositionPlan check sees", decl.Name.Name, v.Name())
				})
			}
		}
	}
}

// collectPlans extracts, per mechanism type, the labels its CompositionPlan
// declares. A plan that returns anything but plan literals (a delegation, a
// computed plan), or has an entry whose label is not a constant, is open.
func (vr *verifier) collectPlans() map[string]*labelPlan {
	info := vr.pass.TypesInfo
	plans := map[string]*labelPlan{}
	for obj, fd := range vr.decls {
		recv := obj.Type().(*types.Signature).Recv()
		if obj.Name() != "CompositionPlan" || recv == nil || namedStruct(recv.Type()) == nil {
			continue
		}
		p := &labelPlan{labels: map[string]bool{}}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					if _, lit := unparen(res).(*ast.CompositeLit); !lit && !info.Types[res].IsNil() {
						p.open = true
					}
				}
			case *ast.CompositeLit:
				if types.TypeString(info.TypeOf(n), nil) != meterapi.PkgPath+".PlanEntry" {
					break
				}
				label, ok := "", false
				for i, elt := range n.Elts {
					if kv, isKV := elt.(*ast.KeyValueExpr); isKV && types.ExprString(kv.Key) == "Label" {
						label, ok = meterapi.ConstString(info, kv.Value)
					} else if !isKV && i == 0 { // positional form: Label comes first
						label, ok = meterapi.ConstString(info, elt)
					}
				}
				switch {
				case !ok:
					p.open = true
				case strings.HasSuffix(label, "*"):
					p.wildcards = append(p.wildcards, strings.TrimSuffix(label, "*"))
				default:
					p.labels[label] = true
				}
			}
			return true
		})
		plans[namedStruct(recv.Type()).Name()] = p
	}
	return plans
}
