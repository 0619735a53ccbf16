// Package meterapi centralizes the analyzers' knowledge of the
// dpbench/internal/noise surface: which methods belong to noise.Meter and
// which of them open sub-meter scopes.
package meterapi

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// PkgPath is the import path of the metered-noise package.
const PkgPath = "dpbench/internal/noise"

// SubMethods are the Meter methods that open a child scope whose result must
// be closed back into the parent.
var SubMethods = map[string]bool{"Sub": true, "SubEps": true, "SubParEps": true}

// MeterMethod reports whether call invokes a method on noise.Meter and, if
// so, the method name.
func MeterMethod(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	if !isMeter(sig.Recv().Type()) {
		return "", false
	}
	return fn.Name(), true
}

// isMeter reports whether t is noise.Meter or *noise.Meter.
func isMeter(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == PkgPath && obj.Name() == "Meter"
}

// ConstString resolves e to a compile-time string constant.
func ConstString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
