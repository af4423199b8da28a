package msvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// stwsafe: nothing reachable from inside the stop-the-world window may
// allocate, touch a channel, or take a lock that is not explicitly
// marked safe for the window.
//
// The window is the world's region from the hold walk (held.go): the
// code that runs between a `StopTheWorld` and a `ResumeTheWorld` on the
// same receiver along every path — to the end of the function when the
// resume is deferred (the canonical
// `if !h.m.StopTheWorld(p) { return }; defer h.m.ResumeTheWorld(p)`
// shape), and past a resume on an early-out branch for the paths that
// do not take it. Every function statically callable from inside a
// window (plus `//msvet:stw-entry` roots) is STW-reachable in its
// entirety; the walk is a fixpoint over the module call graph.
//
// A `//msvet:stw-entry` function assumes a window its caller holds, so
// every call to one must sit inside a window or in an STW-reachable
// function; any other call is reported (a collection that forgot to
// stop the world).
//
// Soundness: dynamic calls (interface methods, function-typed fields
// such as the heap's preGC/postGC hooks, stored closures) are not in
// the call graph, so code reachable only through them is not checked —
// the hook registrars are the audit points for those.
//
// The walk does not descend into: lock acquire/release methods and
// StopTheWorld/ResumeTheWorld themselves (the synchronization
// boundary is audited in firefly, not re-derived), functions annotated
// //msvet:stw-safe, and calls already reported as violations.
var StwsafeAnalyzer = &Analyzer{
	Name: "stwsafe",
	Doc:  "no allocation, channel ops, or unsafe lock acquisition reachable from the STW window",
	RunModule: func(pass *ModulePass) error {
		for _, f := range pass.Mod.stwCompute().findings {
			pass.report(Finding{Analyzer: pass.Analyzer.Name, Pos: pass.Mod.Fset.Position(f.pos), Message: f.msg})
		}
		return nil
	},
}

type stwFinding struct {
	pos token.Pos
	msg string
}

type stwResult struct {
	whole    map[*FuncNode]bool   // functions STW-reachable in their entirety
	windows  map[*FuncNode]region // each function's own STW window
	findings []stwFinding
}

// allocMethods: calling these inside the window is the violation the
// concurrent-marking roadmap item must never see — GC allocating while
// the world is stopped.
var allocMethods = map[string]bool{"Allocate": true, "AllocateNoGC": true}

var hostAcquireMethods = map[string]bool{"Lock": true, "RLock": true}

// noDescend names the synchronization entry points — releaseFor's
// acquires and releases, and sync.Mutex/RWMutex's — the walk treats as
// opaque: acquires are checked against //msvet:stw-safe at the call
// site, and the implementations (firefly's spinlock loops, the
// rendezvous itself) are their own audit domain.
func noDescend(name string) bool {
	return isAcquire(name) || isRelease(name) || hostAcquireMethods[name] ||
		name == "Unlock" || name == "RUnlock"
}

// STWReachable returns the set of functions whose whole body is
// statically reachable from inside a stop-the-world window. Shared by
// stwsafe (violations), atomicguard (STW-only sections are excluded
// from the atomic-discipline check), and barrierflow (collector code
// may write heap words raw).
func (m *Module) STWReachable() map[*FuncNode]bool {
	return m.stwCompute().whole
}

// STWCovered reports whether a position in node's body runs with the
// world stopped: the whole function is STW-reachable, or the position
// sits inside the function's own window (FullCollect and Scavenge
// contain their windows rather than being called from one).
func (m *Module) STWCovered(node *FuncNode, pos token.Pos) bool {
	res := m.stwCompute()
	return res.whole[node] || res.windows[node].contains(pos)
}

func (m *Module) stwCompute() *stwResult {
	if m.stw != nil {
		return m.stw
	}
	g := m.Graph()
	res := &stwResult{whole: map[*FuncNode]bool{}, windows: map[*FuncNode]region{}}

	var queue []*FuncNode
	enqueue := func(n *FuncNode) {
		if !res.whole[n] {
			res.whole[n] = true
			queue = append(queue, n)
		}
	}

	// descendCallees walks the calls in one region of node's body and
	// enqueues every statically-resolved callee the STW rules follow
	// into.
	descendCallees := func(node *FuncNode, r region) {
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !r.contains(call.Pos()) {
				return true
			}
			name := calleeSelName(call)
			if noDescend(name) || allocMethods[name] {
				return true
			}
			callee := g.ByFunc[m.Callee(call)]
			if callee == nil {
				return true
			}
			if _, safe := m.Ann.StwSafeFunc[callee.Fn]; safe {
				return true
			}
			enqueue(callee)
			return true
		})
	}

	// Seeds: //msvet:stw-entry roots and every function's own window.
	for _, node := range g.Nodes {
		if _, ok := m.Ann.StwEntry[node.Fn]; ok {
			enqueue(node)
		}
	}
	for _, node := range g.Nodes {
		if w := m.heldIn(node).world(); len(w) > 0 {
			res.windows[node] = w
			descendCallees(node, w)
		}
	}
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		descendCallees(node, wholeBody(node))
	}

	// Violation scan: whole bodies, and the windows of functions not
	// covered whole, plus the stw-entry callers outside any window.
	for _, node := range g.Nodes {
		if res.whole[node] {
			m.stwScan(res, node, wholeBody(node))
			continue
		}
		if w := res.windows[node]; w != nil {
			m.stwScan(res, node, w)
		}
		m.stwEntryCalls(res, node)
	}
	m.stw = res
	return res
}

// stwScan reports every STW violation inside one region.
func (m *Module) stwScan(res *stwResult, node *FuncNode, r region) {
	report := func(pos token.Pos, format string, args ...interface{}) {
		res.findings = append(res.findings, stwFinding{pos, fmt.Sprintf(format, args...)})
	}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if !r.contains(n.Pos()) {
				return true
			}
			if id, ok := unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" &&
				len(n.Args) == 1 && m.isChanType(n.Args[0]) {
				report(n.Pos(), "channel close inside the STW window (the rendezvous must not touch channels)")
				return true
			}
			sel, ok := unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			callee := m.Callee(n)
			if callee != nil {
				if _, safe := m.Ann.StwSafeFunc[callee]; safe {
					return true
				}
			}
			// A StopTheWorld in the window takes no lock: the rendezvous
			// nests (FullCollect scavenges inside its window).
			switch {
			case allocMethods[name]:
				report(n.Pos(), "allocation %s.%s inside the STW window (GC must not allocate; mark the callee //msvet:stw-safe only after auditing)",
					exprString(sel.X), name)
			case isAcquire(name) && name != "StopTheWorld", hostAcquireMethods[name] && m.isSyncMutex(sel.X):
				if v := m.selectedVar(sel.X); v != nil {
					if _, safe := m.Ann.StwSafeField[v]; safe {
						return true
					}
				}
				report(n.Pos(), "lock %s acquired inside the STW window without //msvet:stw-safe",
					exprString(sel.X))
			}
		case *ast.SendStmt:
			if r.contains(n.Pos()) {
				report(n.Arrow, "channel send inside the STW window (the rendezvous must not touch channels)")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && r.contains(n.Pos()) {
				report(n.Pos(), "channel receive inside the STW window (the rendezvous must not touch channels)")
			}
		case *ast.SelectStmt:
			if r.contains(n.Pos()) {
				report(n.Pos(), "select inside the STW window (the rendezvous must not touch channels)")
			}
		case *ast.RangeStmt:
			if r.contains(n.Pos()) && m.isChanType(n.X) {
				report(n.Pos(), "range over channel inside the STW window (the rendezvous must not touch channels)")
			}
		}
		return true
	})
}

// stwEntryCalls reports every call in node, which is not STW-reachable,
// to a //msvet:stw-entry function from outside node's own window.
func (m *Module) stwEntryCalls(res *stwResult, node *FuncNode) {
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || res.windows[node].contains(call.Pos()) {
			return true
		}
		fn := m.Callee(call)
		if _, entry := m.Ann.StwEntry[fn]; entry {
			res.findings = append(res.findings, stwFinding{call.Pos(), fmt.Sprintf(
				"call to %s, a //msvet:stw-entry function, outside the STW window (stop the world around it)",
				funcDisplayName(fn))})
		}
		return true
	})
}

// isSyncMutex reports whether e's type is sync.Mutex or sync.RWMutex
// (possibly behind a pointer).
func (m *Module) isSyncMutex(e ast.Expr) bool {
	tv, ok := m.Info.Types[e]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

func (m *Module) isChanType(e ast.Expr) bool {
	tv, ok := m.Info.Types[e]
	if !ok {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// calleeSelName returns the lexical method/function name of a call.
func calleeSelName(call *ast.CallExpr) string {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
