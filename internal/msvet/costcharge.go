package msvet

import "go/ast"

// CostchargeAnalyzer enforces the msjit tier's bit-identity discipline
// at the source level: internal/jit describes work, it never prices it.
// Every virtual-time charge for a compiled bytecode must flow through
// the interpreter's shared cost table (interp.costTable), so the
// compiled and interpreted tiers cannot drift apart by construction.
// Two shapes betray a hand-invented cost in internal/jit:
//
//   - firefly.Time(<integer literal>) with a nonzero literal — a
//     constant cost conjured outside the table;
//   - any .Advance(...) call — advancing a clock is the executor's job,
//     and the executor lives in internal/interp.
//
// Derived quantities like firefly.Time(n-1) * p.DispatchCost are fine:
// the magnitude still comes from the table.
var CostchargeAnalyzer = &Analyzer{
	Name: "costcharge",
	Doc:  "internal/jit charges virtual time only through the shared cost table",
	RunModule: func(pass *ModulePass) error {
		for _, pkg := range pass.Mod.Pkgs {
			if pkg.Path != "internal/jit" {
				continue
			}
			for _, f := range pkg.Files {
				if f.Test {
					continue
				}
				ast.Inspect(f.AST, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == "firefly" &&
						sel.Sel.Name == "Time" && len(call.Args) == 1 {
						if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Value != "0" {
							pass.Reportf(call.Pos(),
								"firefly.Time(%s) invents a cost outside the shared cost table",
								lit.Value)
						}
					}
					if sel.Sel.Name == "Advance" {
						pass.Reportf(call.Pos(),
							"%s charges virtual time in internal/jit; charging belongs to the executor in internal/interp",
							exprString(call.Fun))
					}
					return true
				})
			}
		}
		return nil
	},
}
