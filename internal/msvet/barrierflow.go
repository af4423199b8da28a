package msvet

import (
	"go/ast"
	"go/token"
)

// barrierflow: the heap-store discipline, checked per function over
// the call graph. The invariant: every store of a word into object memory
// (`X.mem[i] = v`, `copy(X.mem[...], ...)`, atomic stores/CAS on
// `&X.mem[i]`) must reach the write barrier's store check — which in
// this codebase means the store must sit in one of exactly two kinds
// of function:
//
//   - a `//msvet:heap-writer` funnel: storeWord (the barrier API's
//     single exit point), the allocator writing fresh unpublished
//     words, the CAS-claimed header updater, the snapshot restorer;
//   - STW-reachable collector code (Module.STWReachable): while the
//     world is stopped there are no concurrent mutators and the
//     collector moves objects wholesale.
//
// Everything else is a finding, *wherever* the store lexically lives —
// a helper function can no longer launder an unbarriered store past a
// file- or package-level allowlist, because the check is per function
// over the call-graph-derived STW set, not per file. When the
// offending function is reachable from an exported entry point the
// message names one such path root, which is the smoking gun for
// mutator-visible barrier bypass.
//
// One file gets no exemption at all: internal/heap/verify.go, the
// write-barrier *verifier*, is read-only by construction and must stay
// that way — a write there would let the checker perturb what it
// checks, and the rules above alone would wave it through (the
// verifier runs inside the STW window).
//
// Soundness: function granularity, not per-store def-use chains — a
// function that both zeroes fresh memory and stores mutator-visible
// OOPs would need (and deserve) a split before it could be annotated
// honestly. Dynamic calls are invisible to the STW set, so a collector
// helper invoked only through a function value must carry its own
// annotation.
var BarrierflowAnalyzer = &Analyzer{
	Name: "barrierflow",
	Doc:  "every raw store into object memory must be an annotated funnel or STW collector code",
	RunModule: func(pass *ModulePass) error {
		m := pass.Mod
		stw := m.STWReachable()
		roots := m.exportedReach()
		for _, node := range m.Graph().Nodes {
			stores := rawMemStores(m, node)
			if len(stores) == 0 {
				continue
			}
			if node.Pkg.Path == "internal/heap" && node.File.Name == "verify.go" {
				for _, s := range stores {
					pass.Reportf(s.pos, "write-barrier verifier must stay read-only: %s writes heap memory", s.expr)
				}
				continue
			}
			if _, ok := m.Ann.HeapWriter[node.Fn]; ok {
				continue
			}
			if stw[node] {
				continue
			}
			suffix := ""
			if root := roots[node]; root != nil {
				suffix = " and is reachable from exported " + funcDisplayName(root.Fn)
			}
			for _, s := range stores {
				if m.STWCovered(node, s.pos) {
					// The store sits inside the function's own lexical
					// STW window (FullCollect, Scavenge).
					continue
				}
				pass.Reportf(s.pos,
					"raw heap store %s: %s is neither a //msvet:heap-writer funnel nor STW collector code%s; route the store through the barrier API (Store/StoreNoCheck)",
					s.expr, funcDisplayName(node.Fn), suffix)
			}
		}
		return nil
	},
}

type rawStore struct {
	pos  token.Pos
	expr string
}

// rawMemStores collects every raw object-memory store in one function:
// plain writes, increments, wholesale copies, and atomic stores/CAS
// targeting `&X.mem[i]`.
func rawMemStores(m *Module, node *FuncNode) []rawStore {
	var out []rawStore
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if memTarget(lhs) {
					out = append(out, rawStore{lhs.Pos(), exprString(lhs)})
				}
			}
		case *ast.IncDecStmt:
			if memTarget(n.X) {
				out = append(out, rawStore{n.Pos(), exprString(n.X)})
			}
		case *ast.CallExpr:
			if id, ok := unparen(n.Fun).(*ast.Ident); ok && id.Name == "copy" && len(n.Args) > 0 {
				if memSlice(n.Args[0]) {
					out = append(out, rawStore{n.Pos(), "copy(" + exprString(n.Args[0]) + ", ...)"})
				}
				return true
			}
			if m.isAtomicCall(n) {
				sel := unparen(n.Fun).(*ast.SelectorExpr)
				name := sel.Sel.Name
				if !atomicStoresArg(name) {
					return true
				}
				for _, arg := range n.Args {
					u, ok := unparen(arg).(*ast.UnaryExpr)
					if !ok || u.Op != token.AND {
						continue
					}
					if memTarget(u.X) {
						out = append(out, rawStore{arg.Pos(), "atomic " + name + "(" + exprString(arg) + ")"})
					}
					break // only the address argument can be the target
				}
			}
		}
		return true
	})
	return out
}

// atomicStoresArg reports whether the named sync/atomic function
// writes through its address argument.
func atomicStoresArg(name string) bool {
	switch {
	case len(name) >= 5 && name[:5] == "Store":
		return true
	case len(name) >= 14 && name[:14] == "CompareAndSwap":
		return true
	case len(name) >= 4 && name[:4] == "Swap":
		return true
	case len(name) >= 3 && name[:3] == "Add":
		return true
	}
	return false
}

// exportedReach computes, for every node reachable from an exported
// function (or main/init), one deterministic exported root — used to
// point out that a barrier bypass is mutator-visible. The walk stops
// at annotated heap-writer funnels and STW entry calls (those are the
// sanctioned boundaries).
func (m *Module) exportedReach() map[*FuncNode]*FuncNode {
	g := m.Graph()
	stw := m.STWReachable()
	roots := map[*FuncNode]*FuncNode{}
	var queue []*FuncNode
	for _, node := range g.Nodes {
		name := node.Decl.Name.Name
		if !ast.IsExported(name) && name != "main" && name != "init" {
			continue
		}
		if roots[node] == nil {
			roots[node] = node
			queue = append(queue, node)
		}
	}
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		for _, callee := range node.Callees {
			if roots[callee] != nil || stw[callee] {
				continue
			}
			if _, ok := m.Ann.HeapWriter[callee.Fn]; ok {
				continue
			}
			roots[callee] = roots[node]
			queue = append(queue, callee)
		}
	}
	return roots
}

// memTarget reports whether e is an index into a `.mem` field
// (or a local named mem).
func memTarget(e ast.Expr) bool {
	idx, ok := e.(*ast.IndexExpr)
	if !ok {
		return false
	}
	return isMemExpr(idx.X)
}

// memSlice reports whether e slices or names heap memory
// (`X.mem[a:b]`, `X.mem`).
func memSlice(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.SliceExpr:
		return isMemExpr(e.X)
	case *ast.IndexExpr:
		return isMemExpr(e.X)
	default:
		return isMemExpr(e)
	}
}

func isMemExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		return e.Sel.Name == "mem"
	case *ast.Ident:
		return e.Name == "mem"
	default:
		return false
	}
}
