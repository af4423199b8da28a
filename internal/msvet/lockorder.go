package msvet

import (
	"encoding/json"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"mst/internal/sanitize"
)

// lockorder: the static lock-acquisition-order graph, extracted across
// the call graph.
//
// Lock identity is registration-based: a lock is a struct field (or
// variable) assigned from `m.NewSpinlock("name", ...)` or
// `m.NewRWSpinlock("name", ...)` with a literal name — exactly the
// names mscheck's runtime lockset checker sees in OnAcquire. A lock is
// held over its region from the hold walk (held.go): from the acquire
// along every path until a release on that path, to the end of the
// function for a deferred release. Edges are held-lock -> acquired-lock,
// both for direct acquisitions inside a region and, interprocedurally,
// for calls to functions that may transitively acquire a lock (a
// fixpoint over the call graph). The result is a superset of any order
// the runtime can exhibit through static calls; mscheck cross-checks
// the observed order is a subgraph (Checker.StaticOrderViolations).
//
// Soundness: acquisitions reached only through dynamic calls
// (interface methods, stored closures) are invisible, as are locks
// registered with computed names. A TryAcquire's region includes the
// code the walk cannot prove runs without the lock — a superset, which
// is the direction the subgraph cross-check needs.
//
// The analyzer reports static cycles, found and rendered exactly as
// mscheck renders its runtime ones (sanitize.Cycles), at the edge that
// closes back into the cycle's smallest lock; `msvet -lockgraph` emits
// the graph as deterministic JSON (nodes sorted, edges sorted, first
// witness positions from a deterministic walk).
var LockorderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc:  "the static lock-acquisition-order graph must be acyclic",
	RunModule: func(pass *ModulePass) error {
		lg := pass.Mod.LockGraph()
		edges := make([][2]string, 0, len(lg.edges))
		for e := range lg.edges {
			edges = append(edges, e)
		}
		for _, cyc := range sanitize.Cycles(edges) {
			locks := strings.Split(cyc, " -> ")
			pass.Reportf(lg.edges[[2]string{locks[len(locks)-2], locks[0]}],
				"static lock-order cycle: %s (deadlock if the paths interleave; pick one global order)", cyc)
		}
		return nil
	},
}

// LockGraphData is the deterministic JSON shape `msvet -lockgraph`
// emits and `msbench -lockgraph` consumes.
type LockGraphData struct {
	Nodes []string       `json:"nodes"`
	Edges []LockEdgeData `json:"edges"`
}

// LockEdgeData is one held->acquired edge with its first static
// witness.
type LockEdgeData struct {
	From string `json:"from"`
	To   string `json:"to"`
	Pos  string `json:"pos"`
}

// EdgeStrings renders the edges as "from -> to" lines, the exchange
// format mscheck's StaticOrderViolations takes.
func (lg *LockGraphData) EdgeStrings() []string {
	out := make([]string, 0, len(lg.Edges))
	for _, e := range lg.Edges {
		out = append(out, e.From+" -> "+e.To)
	}
	return out
}

// JSON renders the graph as stable, byte-identical-across-runs JSON.
func (lg *LockGraphData) JSON() []byte {
	b, err := json.MarshalIndent(lg, "", "  ")
	if err != nil {
		panic("msvet: lock graph marshal: " + err.Error())
	}
	return append(b, '\n')
}

type lockGraph struct {
	data  *LockGraphData
	edges map[[2]string]token.Pos // first witness in deterministic walk order
}

// LockGraph extracts (once) the static lock-order graph.
func (m *Module) LockGraph() *lockGraph {
	if m.lockg != nil {
		return m.lockg
	}
	lg := &lockGraph{edges: map[[2]string]token.Pos{}}
	g := m.Graph()
	lockVars := m.lockRegistrations()
	lockName := func(a acquireSite) string { return lockVars[m.selectedVar(a.recv)] }

	nameSet := map[string]bool{}
	for _, name := range lockVars {
		nameSet[name] = true
	}
	data := &LockGraphData{}
	for name := range nameSet {
		data.Nodes = append(data.Nodes, name)
	}
	sort.Strings(data.Nodes)

	// Fixpoint: the set of lock names a function may acquire, directly
	// or through static callees.
	acquiredIn := map[*FuncNode]map[string]bool{}
	for _, node := range g.Nodes {
		set := map[string]bool{}
		for _, a := range m.heldIn(node).acquires {
			if name := lockName(a); name != "" {
				set[name] = true
			}
		}
		acquiredIn[node] = set
	}
	for changed := true; changed; {
		changed = false
		for _, node := range g.Nodes {
			set := acquiredIn[node]
			for _, callee := range node.Callees {
				for name := range acquiredIn[callee] {
					if !set[name] {
						set[name] = true
						changed = true
					}
				}
			}
		}
	}

	addEdge := func(from, to string, pos token.Pos) {
		if from == to {
			return
		}
		key := [2]string{from, to}
		if _, ok := lg.edges[key]; !ok {
			lg.edges[key] = pos
		}
	}

	// Edges: inside each lock's region, direct acquires of other locks
	// and calls into functions that may acquire.
	for _, node := range g.Nodes {
		f := m.heldIn(node)
		for _, held := range f.acquires {
			from := lockName(held)
			if from == "" {
				continue
			}
			r := f.regions[held.key]
			for _, other := range f.acquires {
				if to := lockName(other); to != "" && r.contains(other.call.Pos()) {
					addEdge(from, to, other.call.Pos())
				}
			}
			ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !r.contains(call.Pos()) {
					return true
				}
				callee := g.ByFunc[m.Callee(call)]
				if callee == nil {
					return true
				}
				var acquired []string
				for name := range acquiredIn[callee] {
					acquired = append(acquired, name)
				}
				sort.Strings(acquired)
				for _, name := range acquired {
					addEdge(from, name, call.Pos())
				}
				return true
			})
		}
	}

	var keys [][2]string
	for k := range lg.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		data.Edges = append(data.Edges, LockEdgeData{From: k[0], To: k[1], Pos: m.relPos(lg.edges[k])})
	}
	lg.data = data
	m.lockg = lg
	return lg
}

// Data returns the JSON-shaped graph.
func (lg *lockGraph) Data() *LockGraphData { return lg.data }

// lockRegistrations maps each lock-holding variable to its registered
// name: `x.field = m.NewSpinlock("name", ...)` and the composite-
// literal form `T{field: m.NewSpinlock("name", ...)}`.
func (m *Module) lockRegistrations() map[*types.Var]string {
	out := map[*types.Var]string{}
	record := func(v *types.Var, call *ast.CallExpr) {
		if v == nil || len(call.Args) == 0 {
			return
		}
		lit, ok := unparen(call.Args[0]).(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil || name == "" {
			return
		}
		if _, seen := out[v]; !seen {
			out[v] = name
		}
	}
	isCtor := func(e ast.Expr) (*ast.CallExpr, bool) {
		call, ok := unparen(e).(*ast.CallExpr)
		if !ok {
			return nil, false
		}
		name := calleeSelName(call)
		return call, name == "NewSpinlock" || name == "NewRWSpinlock"
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if len(n.Lhs) != len(n.Rhs) {
						return true
					}
					for i, rhs := range n.Rhs {
						if call, ok := isCtor(rhs); ok {
							record(m.selectedVar(n.Lhs[i]), call)
						}
					}
				case *ast.KeyValueExpr:
					if call, ok := isCtor(n.Value); ok {
						if id, ok := n.Key.(*ast.Ident); ok {
							if v, ok := m.Info.Uses[id].(*types.Var); ok {
								record(v, call)
							}
						}
					}
				}
				return true
			})
		}
	}
	return out
}
