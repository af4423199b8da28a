package msvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The //msvet: annotation grammar. Annotations are single-line
// directives in a declaration's doc comment (functions) or a struct
// field's doc/trailing comment (fields). Everything after the
// directive word is a free-form justification, echoed by `msvet -v`;
// an empty justification is legal but frowned upon.
//
//	//msvet:stw-entry [why]        (func)  the function body runs inside
//	                                       the STW window even though no
//	                                       StopTheWorld in its own body
//	                                       opens one; stwsafe seeds
//	                                       its reachability walk here.
//	//msvet:stw-safe [why]         (func)  audited by hand: safe to call
//	                                       from inside the STW window;
//	                                       stwsafe does not descend.
//	//msvet:stw-safe [why]         (field) this lock/mutex may be
//	                                       acquired inside the STW
//	                                       window (it is never held
//	                                       across a GC entry by a
//	                                       stopped mutator).
//	//msvet:atomic-excluded [why]  (func)  plain access to atomically-
//	                                       accessed fields is allowed
//	                                       here (init before publication
//	                                       or det-mode single-threaded
//	                                       paths).
//	//msvet:heap-writer [why]      (func)  audited raw heap-word writer:
//	                                       the barrier funnel itself, or
//	                                       a writer of fresh unpublished
//	                                       memory.
//	//msvet:defined-once <callee> [why]
//	                               (func)  this function is the one
//	                                       non-test caller of <callee>,
//	                                       written as funcDisplayName
//	                                       renders it ("iter.Pull",
//	                                       "firefly.(*Spinlock).TryAcquire");
//	                                       lockpair checks it.
const (
	annStwEntry       = "stw-entry"
	annStwSafe        = "stw-safe"
	annAtomicExcluded = "atomic-excluded"
	annHeapWriter     = "heap-writer"
	annDefinedOnce    = "defined-once"
)

// Annotation is one parsed //msvet: directive.
type Annotation struct {
	Kind          string
	Pos           token.Pos
	Target        string // rendered target (func or field name) for -v
	Justification string
}

// Annotations is the module-wide directive table, keyed by the
// type-checker object each directive attaches to.
type Annotations struct {
	StwEntry       map[*types.Func]string
	StwSafeFunc    map[*types.Func]string
	StwSafeField   map[*types.Var]string
	AtomicExcluded map[*types.Func]string
	HeapWriter     map[*types.Func]string
	DefinedOnce    []DefinedOnce // in position order
	All            []Annotation  // sorted by position, for -v
}

// DefinedOnce is one //msvet:defined-once directive: Carrier is the one
// function allowed to call Callee.
type DefinedOnce struct {
	Carrier *types.Func
	Callee  string
	Pos     token.Pos
}

// parseDirective splits a "//msvet:kind justification" comment line.
func parseDirective(text string) (kind, justification string, ok bool) {
	rest, found := strings.CutPrefix(text, "//msvet:")
	if !found {
		return "", "", false
	}
	kind, justification, _ = strings.Cut(rest, " ")
	return strings.TrimSpace(kind), strings.TrimSpace(justification), kind != ""
}

func collectAnnotations(m *Module) *Annotations {
	ann := &Annotations{
		StwEntry:       map[*types.Func]string{},
		StwSafeFunc:    map[*types.Func]string{},
		StwSafeField:   map[*types.Var]string{},
		AtomicExcluded: map[*types.Func]string{},
		HeapWriter:     map[*types.Func]string{},
	}
	addFunc := func(fd *ast.FuncDecl) {
		fn, _ := m.Info.Defs[fd.Name].(*types.Func)
		if fn == nil {
			return
		}
		for _, c := range commentList(fd.Doc) {
			kind, just, ok := parseDirective(c.Text)
			if !ok {
				continue
			}
			target := funcDisplayName(fn)
			switch kind {
			case annStwEntry:
				ann.StwEntry[fn] = just
			case annStwSafe:
				ann.StwSafeFunc[fn] = just
			case annAtomicExcluded:
				ann.AtomicExcluded[fn] = just
			case annHeapWriter:
				ann.HeapWriter[fn] = just
			case annDefinedOnce:
				callee, why, _ := strings.Cut(just, " ")
				just = strings.TrimSpace(why)
				ann.DefinedOnce = append(ann.DefinedOnce, DefinedOnce{Carrier: fn, Callee: callee, Pos: c.Pos()})
				target = callee + " in " + target
			default:
				continue
			}
			ann.All = append(ann.All, Annotation{
				Kind: kind, Pos: c.Pos(),
				Target: target, Justification: just,
			})
		}
	}
	addField := func(field *ast.Field) {
		for _, group := range []*ast.CommentGroup{field.Doc, field.Comment} {
			for _, c := range commentList(group) {
				kind, just, ok := parseDirective(c.Text)
				if !ok || kind != annStwSafe {
					continue
				}
				for _, name := range field.Names {
					v, _ := m.Info.Defs[name].(*types.Var)
					if v == nil {
						continue
					}
					ann.StwSafeField[v] = just
					ann.All = append(ann.All, Annotation{
						Kind: kind, Pos: c.Pos(),
						Target: name.Name, Justification: just,
					})
				}
			}
		}
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			for _, decl := range f.AST.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					addFunc(d)
				case *ast.GenDecl:
					ast.Inspect(d, func(n ast.Node) bool {
						if st, ok := n.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								addField(field)
							}
						}
						return true
					})
				}
			}
		}
	}
	sort.Slice(ann.All, func(i, j int) bool { return ann.All[i].Pos < ann.All[j].Pos })
	sort.Slice(ann.DefinedOnce, func(i, j int) bool { return ann.DefinedOnce[i].Pos < ann.DefinedOnce[j].Pos })
	return ann
}

// checkDefinedOnce holds every //msvet:defined-once pairing over the
// call graph, where a closure's calls are its declaring function's and
// test files are absent. Each is a finding: a second carrier for one
// callee, a call to the callee from a function that does not carry it,
// and a carrier that no longer calls it.
func checkDefinedOnce(pass *ModulePass) {
	type pairing struct {
		carrier *types.Func
		callee  string
	}
	owner := map[string]*types.Func{} // callee → its first carrier
	called := map[pairing]bool{}      // every pairing; true once its call is seen
	for _, d := range pass.Mod.Ann.DefinedOnce {
		called[pairing{d.Carrier, d.Callee}] = false
		if first, dup := owner[d.Callee]; dup {
			pass.Reportf(d.Pos, "second //msvet:defined-once for %s: %s already carries it",
				d.Callee, funcDisplayName(first))
		} else {
			owner[d.Callee] = d.Carrier
		}
	}
	for _, node := range pass.Mod.Graph().Nodes {
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pass.Mod.Callee(call)
			if fn == nil {
				return true
			}
			callee := funcDisplayName(fn.Origin())
			first, annotated := owner[callee]
			if !annotated {
				return true
			}
			p := pairing{node.Fn, callee}
			if _, carrier := called[p]; carrier {
				called[p] = true
			} else {
				pass.Reportf(call.Pos(), "%s is called in %s; //msvet:defined-once gives it to %s alone",
					callee, funcDisplayName(node.Fn), funcDisplayName(first))
			}
			return true
		})
	}
	for _, d := range pass.Mod.Ann.DefinedOnce {
		if !called[pairing{d.Carrier, d.Callee}] {
			pass.Reportf(d.Pos, "%s carries //msvet:defined-once %s but never calls it",
				funcDisplayName(d.Carrier), d.Callee)
		}
	}
}

func commentList(g *ast.CommentGroup) []*ast.Comment {
	if g == nil {
		return nil
	}
	return g.List
}

// funcDisplayName renders "pkg.Func" or "pkg.(*Recv).Method".
func funcDisplayName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := types.TypeString(sig.Recv().Type(), func(p *types.Package) string { return "" })
		if strings.HasPrefix(recv, "*") {
			recv = "(" + recv + ")"
		}
		name = recv + "." + name
		name = strings.TrimPrefix(name, ".")
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}
