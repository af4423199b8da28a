package msvet

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// What is held here: one hold walk per call-graph function, read by
// three analyzers.
//
// The walk simulates a function's statements with a held-lock state.
// A key is a receiver plus its release method ("h.allocLock#Release",
// "h.m#ResumeTheWorld"), and each key is definitely held, maybe held,
// or absent. Branches merge (definite only where both paths agree), a
// loop body runs zero times or once, and a path ends at a return, a
// panic or a break/continue/goto. Function literals are walked as
// scopes of their own. On the way, every statement is filed in the
// region of each key that may be held when it starts (function literals
// in it included: a closure runs with its parent's obligations): a
// key's region is the code that runs while it may be held, and a release
// on an early-out branch ends it on that path only.
//
//   - lockpair reports what the walk sees at the exits: a key still
//     definitely held at a return or at the end of the body, and an
//     acquire whose key no call in the function releases.
//   - lockorder draws its held -> acquired edges inside lock regions.
//   - stwsafe's stop-the-world window is the world's region: the keys
//     ResumeTheWorld releases.
//
// Beyond straight-line code the walk knows two idioms:
//
//   - a conditional acquire (TryAcquire; StopTheWorld, whose false means
//     another processor stopped the world first) holds its key only
//     where it succeeded: after `if !X.TryAcquire(p) { bail }`, inside
//     `if X.TryAcquire(p) { ... }`, and after `for !X.StopTheWorld(p) {}`
//     (TenureAll's spin);
//   - a deferred release keeps its key held to every exit, and no exit
//     reports it.
//
// Soundness: no boolean correlation is tracked (the shared method
// cache's `locked` flag leaves its lock maybe held: lockpair does not
// report it, and its region over-approximates), and a break ends its
// path, so what a loop still holds after breaking out is missed.

// releaseFor maps acquire method names to their release counterparts:
// the one table of what takes and what drops a hold. StopTheWorld is the
// parallel host mode's rendezvous: it parks every other processor and
// MUST be undone by ResumeTheWorld, so it pairs exactly like a lock
// acquire.
var releaseFor = map[string]string{
	"Acquire":      "Release",
	"TryAcquire":   "Release",
	"AcquireRead":  "ReleaseRead",
	"AcquireWrite": "ReleaseWrite",
	"StopTheWorld": "ResumeTheWorld",
}

// condAcquire marks the acquires that return a bool and take the hold
// only when it is true.
var condAcquire = map[string]bool{
	"TryAcquire":   true,
	"StopTheWorld": true,
}

func isAcquire(method string) bool {
	_, ok := releaseFor[method]
	return ok
}

func isRelease(method string) bool {
	for _, rel := range releaseFor {
		if rel == method {
			return true
		}
	}
	return false
}

// holdKey names what a call takes or drops: its receiver plus the
// release method, so X.AcquireRead and X.ReleaseRead meet on
// "X#ReleaseRead". ok is false for a call that is neither.
func holdKey(call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	method = sel.Sel.Name
	rel, acquire := releaseFor[method]
	if !acquire {
		if !isRelease(method) {
			return "", "", false
		}
		rel = method
	}
	return exprString(sel.X) + "#" + rel, method, true
}

type posRange struct{ start, end token.Pos }

// region is the source a key may be held over.
type region []posRange

func (r region) contains(p token.Pos) bool {
	for _, pr := range r {
		if p >= pr.start && p < pr.end {
			return true
		}
	}
	return false
}

// wholeBody is the region of node's entire body.
func wholeBody(node *FuncNode) region {
	return region{{node.Decl.Body.Pos(), node.Decl.Body.End()}}
}

type acquireSite struct {
	call *ast.CallExpr
	recv ast.Expr
	key  string
}

type leak struct {
	pos  token.Pos
	recv string
}

// heldFacts is the walk's result for one function.
type heldFacts struct {
	acquires []acquireSite     // every acquire call in the body, closures included, in source order
	released map[string]bool   // keys some call in the body releases
	regions  map[string]region // key → the code that runs while it may be held
	leaks    []leak            // keys definitely held where control leaves
}

// world is the function's stop-the-world window: the union of the
// regions of the keys ResumeTheWorld releases.
func (f *heldFacts) world() region {
	var w region
	for key, r := range f.regions {
		if strings.HasSuffix(key, "#ResumeTheWorld") {
			w = append(w, r...)
		}
	}
	return w
}

// heldIn runs (once) the hold walk over node.
func (m *Module) heldIn(node *FuncNode) *heldFacts {
	if f := m.holds[node]; f != nil {
		return f
	}
	f := &heldFacts{released: map[string]bool{}, regions: map[string]region{}}
	body := node.Decl.Body
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if key, method, ok := holdKey(call); ok && isAcquire(method) {
				f.acquires = append(f.acquires, acquireSite{call, unparen(call.Fun).(*ast.SelectorExpr).X, key})
			} else if ok {
				f.released[key] = true
			}
		}
		return true
	})
	f.walk(body)
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if ok {
			f.walk(lit.Body)
		}
		return !ok
	})
	if m.holds == nil {
		m.holds = map[*FuncNode]*heldFacts{}
	}
	m.holds[node] = f
	return f
}

const (
	heldMaybe = iota + 1
	heldDefinite
)

// hold is one key's state on one path.
type hold struct {
	level    int  // heldMaybe or heldDefinite
	deferred bool // a deferred release covers every exit
}

type holdState map[string]hold

func (s holdState) clone() holdState {
	c := make(holdState, len(s))
	for k, h := range s {
		c[k] = h
	}
	return c
}

// replace overwrites s's contents with src, so callers see the state
// they passed in change.
func (s holdState) replace(src holdState) {
	for k := range s {
		delete(s, k)
	}
	for k, h := range src {
		s[k] = h
	}
}

// merge joins two paths. A key both hold the same way keeps its hold;
// any other key (one path's missing key reads as the zero hold) is
// maybe held.
func merge(a, b holdState) holdState {
	out := holdState{}
	for k, h := range a {
		if other := b[k]; h != other {
			out[k] = hold{level: heldMaybe, deferred: h.deferred || other.deferred}
		} else {
			out[k] = h
		}
	}
	for k, h := range b {
		if _, in := a[k]; !in {
			out[k] = hold{level: heldMaybe, deferred: h.deferred}
		}
	}
	return out
}

// condHold decomposes a condition that is a conditional acquire,
// possibly negated, into the key it takes.
func condHold(cond ast.Expr) (key string, negated, ok bool) {
	if u, isNot := unparen(cond).(*ast.UnaryExpr); isNot && u.Op == token.NOT {
		cond, negated = u.X, true
	}
	call, isCall := unparen(cond).(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	key, method, isLock := holdKey(call)
	return key, negated, isLock && condAcquire[method]
}

func (f *heldFacts) walk(body *ast.BlockStmt) {
	state := holdState{}
	if !f.block(state, body.List) {
		f.exit(state, body.End())
	}
}

// mark files [from, to) in the region of every key state may hold.
func (f *heldFacts) mark(state holdState, from, to token.Pos) {
	for k := range state {
		f.regions[k] = append(f.regions[k], posRange{from, to})
	}
}

// exit records a leak for every key definitely held where control
// leaves the function.
func (f *heldFacts) exit(state holdState, pos token.Pos) {
	var keys []string
	for k, h := range state {
		if h.level == heldDefinite && !h.deferred {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		recv, _, _ := strings.Cut(k, "#")
		f.leaks = append(f.leaks, leak{pos, recv})
	}
}

// block walks stmts in order, mutating state; it reports whether the
// path ended.
func (f *heldFacts) block(state holdState, stmts []ast.Stmt) bool {
	for _, st := range stmts {
		if f.stmt(state, st) {
			return true
		}
	}
	return false
}

func (f *heldFacts) stmt(state holdState, stmt ast.Stmt) bool {
	switch st := stmt.(type) {
	case *ast.BlockStmt:
		return f.block(state, st.List)
	case *ast.LabeledStmt:
		return f.stmt(state, st.Stmt)
	case *ast.IfStmt:
		return f.ifStmt(state, st)
	case *ast.ForStmt:
		if st.Init != nil {
			f.stmt(state, st.Init)
		}
		f.loop(state, st.Body)
		f.mark(state, st.Pos(), st.Body.Lbrace)
		if key, negated, ok := condHold(st.Cond); ok && negated {
			// for !X.StopTheWorld(p) {}: the loop ends when it succeeds.
			state[key] = hold{level: heldDefinite}
		}
		return false
	case *ast.RangeStmt:
		f.mark(state, st.Pos(), st.Body.Lbrace)
		f.loop(state, st.Body)
		return false
	case *ast.SwitchStmt:
		f.cases(state, st.Init, st.Pos(), st.Body)
		return false
	case *ast.TypeSwitchStmt:
		f.cases(state, st.Init, st.Pos(), st.Body)
		return false
	case *ast.SelectStmt:
		f.cases(state, nil, st.Pos(), st.Body)
		return false
	}

	// A simple statement runs under whatever is held when it starts.
	f.mark(state, stmt.Pos(), stmt.End())
	switch st := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := unparen(st.X).(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
			f.apply(state, call, true)
		}
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			ast.Inspect(rhs, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					// An acquire whose result flows into a variable:
					// conservatively maybe held.
					f.apply(state, call, false)
				}
				_, lit := n.(*ast.FuncLit)
				return !lit
			})
		}
	case *ast.ReturnStmt:
		f.exit(state, st.Pos())
		return true
	case *ast.BranchStmt:
		return true
	case *ast.DeferStmt:
		if key, method, ok := holdKey(st.Call); ok && !isAcquire(method) {
			if h, held := state[key]; held {
				h.deferred = true
				state[key] = h
			}
		}
	}
	return false
}

// apply takes or drops the hold a call names. definite is false when an
// acquire's result flows somewhere the walk cannot follow.
func (f *heldFacts) apply(state holdState, call *ast.CallExpr, definite bool) {
	key, method, ok := holdKey(call)
	switch {
	case !ok:
	case !isAcquire(method):
		delete(state, key)
	case definite && !condAcquire[method]:
		state[key] = hold{level: heldDefinite}
	default:
		state[key] = hold{level: heldMaybe}
	}
}

func (f *heldFacts) ifStmt(state holdState, st *ast.IfStmt) bool {
	if st.Init != nil {
		f.stmt(state, st.Init)
	}
	f.mark(state, st.Pos(), st.Body.Lbrace)
	then, els := state.clone(), state.clone()
	if key, negated, ok := condHold(st.Cond); ok {
		won := then
		if negated {
			won = els
		}
		won[key] = hold{level: heldDefinite}
	}
	thenEnds := f.block(then, st.Body.List)
	elseEnds := st.Else != nil && f.stmt(els, st.Else)
	switch {
	case thenEnds && elseEnds:
		return true
	case thenEnds:
		state.replace(els)
	case elseEnds:
		state.replace(then)
	default:
		state.replace(merge(then, els))
	}
	return false
}

// loop walks a body that may run zero times or once: the state after is
// the merge of skipping it and one pass.
func (f *heldFacts) loop(state holdState, body *ast.BlockStmt) {
	pass := state.clone()
	if !f.block(pass, body.List) {
		state.replace(merge(state, pass))
	}
}

// cases merges the clauses of a switch or select; without a default
// clause, running none of them is one more path.
func (f *heldFacts) cases(state holdState, init ast.Stmt, header token.Pos, body *ast.BlockStmt) {
	if init != nil {
		f.stmt(state, init)
	}
	f.mark(state, header, body.Lbrace)
	var outs []holdState
	hasDefault := false
	for _, c := range body.List {
		var stmts []ast.Stmt
		var colon token.Pos
		switch cc := c.(type) {
		case *ast.CaseClause:
			stmts, colon = cc.Body, cc.Colon
			hasDefault = hasDefault || cc.List == nil
		case *ast.CommClause:
			stmts, colon = cc.Body, cc.Colon
			hasDefault = hasDefault || cc.Comm == nil
		}
		f.mark(state, c.Pos(), colon)
		cs := state.clone()
		if !f.block(cs, stmts) {
			outs = append(outs, cs)
		}
	}
	if !hasDefault {
		outs = append(outs, state.clone())
	}
	if len(outs) == 0 {
		return
	}
	acc := outs[0]
	for _, o := range outs[1:] {
		acc = merge(acc, o)
	}
	state.replace(acc)
}

// LockpairAnalyzer checks that every virtual-spinlock acquisition, and
// every StopTheWorld, is paired with its release: some call in the same
// function releases the key, and by the hold walk no key is still
// definitely held where control leaves the function. Maybe-held keys
// (the conditional acquire patterns the walk cannot correlate) are not
// reported — a false positive would teach people to ignore the tool.
// Test files are not in the call graph: fault-injection tests acquire
// without releasing on purpose. It also pairs every //msvet:defined-once
// callee with its one carrier (checkDefinedOnce).
var LockpairAnalyzer = &Analyzer{
	Name: "lockpair",
	Doc:  "every Spinlock acquire must pair with its release on all paths, and every defined-once callee with its one caller",
	RunModule: func(pass *ModulePass) error {
		for _, node := range pass.Mod.Graph().Nodes {
			f := pass.Mod.heldIn(node)
			for _, a := range f.acquires {
				if !f.released[a.key] {
					pass.Reportf(a.call.Pos(), "%s is acquired in %s but never released in the same function",
						exprString(a.recv), node.Decl.Name.Name)
				}
			}
			for _, l := range f.leaks {
				pass.Reportf(l.pos, "%s is still held when the function returns on this path", l.recv)
			}
		}
		checkDefinedOnce(pass)
		return nil
	},
}
