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
const (
	annStwEntry       = "stw-entry"
	annStwSafe        = "stw-safe"
	annAtomicExcluded = "atomic-excluded"
	annHeapWriter     = "heap-writer"
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
	All            []Annotation // sorted by position, for -v
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
			switch kind {
			case annStwEntry:
				ann.StwEntry[fn] = just
			case annStwSafe:
				ann.StwSafeFunc[fn] = just
			case annAtomicExcluded:
				ann.AtomicExcluded[fn] = just
			case annHeapWriter:
				ann.HeapWriter[fn] = just
			default:
				continue
			}
			ann.All = append(ann.All, Annotation{
				Kind: kind, Pos: c.Pos(),
				Target: funcDisplayName(fn), Justification: just,
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
	return ann
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
		t := sig.Recv().Type()
		name = types.TypeString(t, func(p *types.Package) string { return "" }) + "." + name
		name = strings.TrimPrefix(name, ".")
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}
