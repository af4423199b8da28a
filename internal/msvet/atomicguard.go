package msvet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// atomicguard: a struct field that is accessed through sync/atomic
// anywhere in the module (the heap words h.mem, which loadWord reads
// atomically under -parallel, for example) must be accessed
// atomically *everywhere* — one plain read racing one atomic write is
// still a data race, and the det-mode-only "it's single-threaded
// there" argument must be written down, not implied.
//
// Exemptions, in decreasing order of preference:
//   - STW-reachable functions (Module.STWReachable): the world is
//     stopped, mutators are parked at safepoints, plain access is the
//     point of stopping.
//   - `//msvet:atomic-excluded` functions: audited det-mode-only or
//     pre-publication paths; the justification is echoed by -v.
//   - lexical shapes that are not data accesses: the field passed by
//     address to sync/atomic itself, len/cap of it, and index-only
//     `for i := range f` (reads only the immutable length).
//
// Fields of the typed atomic kinds (atomic.Uint64 &c.) need no
// checking — the type system already forbids plain access.
var AtomicguardAnalyzer = &Analyzer{
	Name: "atomicguard",
	Doc:  "fields accessed via sync/atomic must be accessed atomically everywhere",
	RunModule: func(pass *ModulePass) error {
		m := pass.Mod
		tracked := m.atomicFields()
		if len(tracked) == 0 {
			return nil
		}
		stw := m.STWReachable()
		for _, node := range m.Graph().Nodes {
			if _, excluded := m.Ann.AtomicExcluded[node.Fn]; excluded {
				continue
			}
			if stw[node] {
				continue
			}
			scanPlainUses(pass, node, tracked)
		}
		return nil
	},
}

// atomicFields maps every struct field passed by address to a
// sync/atomic function, and every field that aliases one, to the
// position of its first (in deterministic load order) atomic access.
func (m *Module) atomicFields() map[*types.Var]token.Pos {
	tracked := map[*types.Var]token.Pos{}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !m.isAtomicCall(call) {
					return true
				}
				for _, arg := range call.Args {
					u, ok := unparen(arg).(*ast.UnaryExpr)
					if !ok || u.Op != token.AND {
						continue
					}
					v := m.selectedVar(u.X)
					if v == nil || !v.IsField() {
						continue
					}
					if _, seen := tracked[v]; !seen {
						tracked[v] = call.Pos()
					}
				}
				return true
			})
		}
	}
	// A field holding a slice of a tracked field is the same words under
	// another name (heap.Frame's views of h.mem): track it too.
	for dst, src := range m.sliceAliases() {
		if pos, ok := tracked[src]; ok {
			tracked[dst] = pos
		}
	}
	return tracked
}

// isAtomicCall reports whether call is a direct sync/atomic function
// call (atomic.LoadUint64, atomic.CompareAndSwapUint64, ...).
func (m *Module) isAtomicCall(call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := m.Info.Uses[id].(*types.PkgName)
	return ok && pkg.Imported().Path() == "sync/atomic"
}

// scanPlainUses reports every non-exempt use of a tracked field inside
// one function body.
func scanPlainUses(pass *ModulePass, node *FuncNode, tracked map[*types.Var]token.Pos) {
	m := pass.Mod
	exempt := map[ast.Node]bool{}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			if m.isAtomicCall(e) {
				for _, arg := range e.Args {
					if u, ok := unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
						exempt[arg] = true
					}
				}
			} else if id, ok := unparen(e.Fun).(*ast.Ident); ok {
				if _, isBuiltin := m.Info.Uses[id].(*types.Builtin); isBuiltin && (id.Name == "len" || id.Name == "cap") {
					for _, arg := range e.Args {
						exempt[arg] = true
					}
				}
			}
		case *ast.RangeStmt:
			if e.Value == nil {
				// Index-only range reads the length, not the words.
				exempt[e.X] = true
			}
		}
		return true
	})
	report := func(e ast.Expr, v *types.Var) {
		if m.STWCovered(node, e.Pos()) {
			// Inside the function's own STW window (FullCollect,
			// Scavenge): the world is stopped, plain access is the point.
			return
		}
		first := m.relPos(tracked[v])
		pass.Reportf(e.Pos(),
			"plain access to %s: field %s is accessed atomically elsewhere (e.g. %s); use sync/atomic, or annotate the enclosing function //msvet:atomic-excluded with a justification",
			exprString(e), v.Name(), first)
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if exempt[n] {
			return false
		}
		switch e := n.(type) {
		case *ast.SelectorExpr:
			if v := m.selectedVar(e); v != nil {
				if _, ok := tracked[v]; ok {
					report(e, v)
					return false
				}
			}
			ast.Inspect(e.X, visit)
			return false
		case *ast.Ident:
			if v, ok := m.Info.Uses[e].(*types.Var); ok {
				if _, isTracked := tracked[v]; isTracked {
					report(e, v)
				}
			}
		}
		return true
	}
	ast.Inspect(node.Decl.Body, visit)
}
