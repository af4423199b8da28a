package msvet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// barrierflow: the heap-store discipline, checked per function over
// the call graph. The invariant: every store of a word into object memory
// (`X.mem[i] = v`, `copy(X.mem[...], ...)`, atomic stores/CAS on
// `&X.mem[i]`) must reach the write barrier's store check, and so must
// every slice of it that outlives its expression (`f.w = X.mem[a:b]`:
// whoever holds the slice can store with no funnel in sight; a field
// assigned one is object memory under another name, and stores through
// it count like stores through `.mem`) — which in this codebase means
// the store or the slicing must sit in one of exactly two kinds of
// function:
//
//   - a `//msvet:heap-writer` funnel: storeWord (the barrier API's
//     single exit point), the allocator writing fresh unpublished
//     words, the header-bit CAS loop (casHeader), the snapshot restorer,
//     the register window (heap.Frame: Bind and its in-place stores);
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
		mem := memFields{m, m.sliceAliases()}
		for _, node := range m.Graph().Nodes {
			stores := mem.rawStores(node)
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
					// The store sits inside the function's own STW
					// window (FullCollect, Scavenge).
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

// memFields decides which expressions name object memory: a field or
// local called mem, or a field that aliases one (sliceAliases).
type memFields struct {
	m       *Module
	aliases map[*types.Var]*types.Var
}

// rawStores collects every raw object-memory store in one function:
// plain writes, increments, wholesale copies, atomic stores/CAS
// targeting `&X.mem[i]`, and slices of memory that escape the
// expression they are built in.
func (mf memFields) rawStores(node *FuncNode) []rawStore {
	var out []rawStore
	consumed := map[ast.Expr]bool{} // slices that copy/append use up on the spot
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if mf.target(lhs) {
					out = append(out, rawStore{lhs.Pos(), exprString(lhs)})
				}
			}
		case *ast.IncDecStmt:
			if mf.target(n.X) {
				out = append(out, rawStore{n.Pos(), exprString(n.X)})
			}
		case *ast.SliceExpr:
			if mf.is(n.X) && !consumed[n] {
				out = append(out, rawStore{n.Pos(), "alias " + exprString(n)})
			}
		case *ast.CallExpr:
			if id, ok := unparen(n.Fun).(*ast.Ident); ok && (id.Name == "copy" || id.Name == "append") && len(n.Args) > 0 {
				for _, arg := range n.Args {
					consumed[unparen(arg)] = true
				}
				if id.Name == "copy" && mf.slice(n.Args[0]) {
					out = append(out, rawStore{n.Pos(), "copy(" + exprString(n.Args[0]) + ", ...)"})
				}
				return true
			}
			if mf.m.isAtomicCall(n) {
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
					if mf.target(u.X) {
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

// target reports whether e is an index into object memory.
func (mf memFields) target(e ast.Expr) bool {
	idx, ok := e.(*ast.IndexExpr)
	return ok && mf.is(idx.X)
}

// slice reports whether e slices or names object memory
// (`X.mem[a:b]`, `X.mem`).
func (mf memFields) slice(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.SliceExpr:
		e = x.X
	case *ast.IndexExpr:
		e = x.X
	}
	return mf.is(e)
}

func (mf memFields) is(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == "mem"
	case *ast.SelectorExpr:
		src := mf.aliases[mf.m.selectedVar(e)]
		return e.Sel.Name == "mem" || src != nil && src.Name() == "mem"
	}
	return false
}

// sliceAliases maps each struct field that is assigned a slice of another
// field (`f.w = h.mem[a:b]`, `T{w: h.mem[a:b]}`) to that field: the same
// memory under another name, which barrierflow and atomicguard must hold
// to the rules of the original. One level only: a slice of an alias is
// flagged where it is built, like any other, but not followed further.
func (m *Module) sliceAliases() map[*types.Var]*types.Var {
	out := map[*types.Var]*types.Var{}
	note := func(lhs, rhs ast.Expr) {
		if s, ok := unparen(rhs).(*ast.SliceExpr); ok {
			dst, src := m.selectedVar(lhs), m.selectedVar(s.X)
			if dst != nil && src != nil && dst.IsField() && src.IsField() {
				out[dst] = src
			}
		}
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i := 0; i < len(n.Lhs) && len(n.Lhs) == len(n.Rhs); i++ {
						note(n.Lhs[i], n.Rhs[i])
					}
				case *ast.KeyValueExpr:
					note(n.Key, n.Value)
				}
				return true
			})
		}
	}
	return out
}
