package msvet

import (
	"go/ast"
	"go/types"
	"sort"
)

// The call graph: one node per function or method *declared in the
// module with a body*. Function literals are merged into the enclosing
// declared function — a closure's calls are attributed to the function
// that lexically contains it, which matches how the STW analyses need
// to see `h.visitAllRoots(func(slot) { ... })`: the closure body
// belongs to the caller's window.
//
// Edges are static calls only, resolved through the type-checker:
// plain identifiers (go/types Uses), qualified identifiers, and
// method selections (go/types Selections). Calls through interface
// values, function-typed fields (the heap's preGC/postGC hooks), and
// stored closures are not resolved — each analyzer that consumes the
// graph documents what that soundness gap means for it.
type CallGraph struct {
	// Nodes in deterministic (file, offset) order.
	Nodes  []*FuncNode
	ByFunc map[*types.Func]*FuncNode
}

// FuncNode is one declared function in the call graph.
type FuncNode struct {
	Fn      *types.Func
	Decl    *ast.FuncDecl
	Pkg     *Package
	File    *File
	Callees []*FuncNode // deduped, deterministic order

	callees map[*FuncNode]bool
}

// Graph builds (once) and returns the module call graph.
func (m *Module) Graph() *CallGraph {
	if m.graph != nil {
		return m.graph
	}
	g := &CallGraph{ByFunc: map[*types.Func]*FuncNode{}}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := m.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				node := &FuncNode{
					Fn: fn, Decl: fd, Pkg: pkg, File: f,
					callees: map[*FuncNode]bool{},
				}
				g.Nodes = append(g.Nodes, node)
				g.ByFunc[fn] = node
			}
		}
	}
	sort.Slice(g.Nodes, func(i, j int) bool {
		return g.Nodes[i].Decl.Pos() < g.Nodes[j].Decl.Pos()
	})
	for _, node := range g.Nodes {
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := m.Callee(call); fn != nil {
				if callee := g.ByFunc[fn]; callee != nil {
					node.callees[callee] = true
				}
			}
			return true
		})
		for callee := range node.callees {
			node.Callees = append(node.Callees, callee)
		}
		sort.Slice(node.Callees, func(i, j int) bool {
			return node.Callees[i].Decl.Pos() < node.Callees[j].Decl.Pos()
		})
	}
	m.graph = g
	return g
}

// Callee resolves a call expression to the statically-known callee, or
// nil for dynamic calls (interface methods, function values) and
// builtins.
func (m *Module) Callee(call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := m.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := m.Info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Qualified identifier: pkg.Func.
		if fn, ok := m.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// CalleeNode resolves a call to its module-declared node, or nil.
func (m *Module) CalleeNode(call *ast.CallExpr) *FuncNode {
	fn := m.Callee(call)
	if fn == nil {
		return nil
	}
	return m.Graph().ByFunc[fn]
}

// selectedVar resolves the object a selector (or bare identifier)
// denotes — typically the struct field a lock or atomic word lives in.
// Returns nil when the expression is not a variable reference.
func (m *Module) selectedVar(e ast.Expr) *types.Var {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		if v, ok := m.Info.Uses[e].(*types.Var); ok {
			return v
		}
		if v, ok := m.Info.Defs[e].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if sel, ok := m.Info.Selections[e]; ok {
			if v, ok := sel.Obj().(*types.Var); ok {
				return v
			}
			return nil
		}
		if v, ok := m.Info.Uses[e.Sel].(*types.Var); ok {
			return v
		}
	case *ast.IndexExpr:
		return m.selectedVar(e.X)
	}
	return nil
}
