// Package msvet is a custom vet suite enforcing the host-code
// discipline this repository's virtual-time simulation depends on.
// Every analyzer runs once over the whole type-checked module (go/types
// over every package, one loader, one callee-resolution call graph and
// one hold walk — see loader.go, callgraph.go, annotations.go, held.go).
// Each stays because a row of the catch matrix (catchmatrix_test.go)
// is caught by it and by no other tool, or because it polices a row of
// the paper's Table 3; the bracket names which:
//
//   - virttime:    no time / math/rand imports in virtual-time packages
//     — host wall-clock or host randomness anywhere in the simulated
//     machine would break bit-identical determinism. [row 7, alone]
//   - lockpair:    every Spinlock/RWSpinlock acquire and StopTheWorld is
//     paired with the matching release — some call in the same function
//     releases it, and by the hold walk it is never still definitely
//     held at a return. It also holds //msvet:defined-once: the one
//     function carrying `//msvet:defined-once <callee>` calls <callee>,
//     and no other non-test function does (the idle poll's TryAcquire,
//     the coroutine constructor's iter.Pull). [Table 3's serialization
//     locks; row 10]
//   - stwsafe:     computes the set of functions reachable from inside
//     the stop-the-world window (the world's region in the hold walk,
//     from a StopTheWorld along every path to its ResumeTheWorld, plus
//     //msvet:stw-entry roots) and reports any reachable allocation,
//     channel operation, or acquisition of a lock not annotated
//     //msvet:stw-safe. [Table 3's serialized scavenge; row 8]
//   - atomicguard: any struct field accessed through sync/atomic
//     anywhere in the module must be accessed atomically everywhere —
//     plain reads/writes are flagged outside STW-reachable code and
//     //msvet:atomic-excluded functions. [row 6 alone; row 4 with
//     barrierflow]
//   - barrierflow: every raw store into object memory (`.mem[...]`)
//     must sit in a //msvet:heap-writer-annotated funnel or in
//     STW-reachable collector code, so helper-function indirection
//     cannot smuggle an unbarriered store past a file allowlist — and
//     none at all in the read-only write-barrier verifier. (Outside
//     internal/heap the Go compiler already enforces it: Heap.mem is
//     unexported and never returned.) [Table 3's entry-tables row;
//     row 4 with atomicguard]
//   - lockorder:   extracts the static lock-acquisition-order graph
//     from the lock regions of the hold walk across the call graph,
//     reports static cycles, and emits the graph as deterministic JSON
//     (`msvet -lockgraph`) for mscheck's runtime subgraph cross-check.
//     [Table 3's serialization locks; row 2]
//
// The suite is intentionally stdlib-only (go/ast + go/parser +
// go/types with the source importer): the build environment has no
// module proxy access, so the golang.org/x/tools go/analysis driver
// (and the `go vet -vettool` unitchecker protocol that requires it)
// is unavailable. The Analyzer and ModulePass types mirror the
// go/analysis API shape so the analyzers could be ported to real
// analysis.Analyzers by swapping the driver.
// Run it as: go run ./cmd/msvet ./...
package msvet

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer is one static check, go/analysis style, applied once to the
// type-checked module.
type Analyzer struct {
	Name      string
	Doc       string
	RunModule func(*ModulePass) error
}

// File is one parsed source file.
type File struct {
	Name string // base name, e.g. "lock.go"
	Test bool   // *_test.go
	AST  *ast.File
}

// Finding is one reported problem.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s",
		f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzers returns the full suite in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		VirttimeAnalyzer,
		LockpairAnalyzer,
		StwsafeAnalyzer,
		AtomicguardAnalyzer,
		BarrierflowAnalyzer,
		LockorderAnalyzer,
	}
}

// Package is one directory's parsed files.
type Package struct {
	Path  string // module-relative dir ("." for root)
	Fset  *token.FileSet
	Files []*File
}

// LoadModule parses every package under root (the directory containing
// go.mod), skipping .git and testdata directories.
func LoadModule(root string) ([]*Package, error) {
	fset := token.NewFileSet()
	byDir := map[string][]*File{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			name := info.Name()
			if name == ".git" || name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("msvet: %v", err)
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		byDir[filepath.ToSlash(dir)] = append(byDir[filepath.ToSlash(dir)], &File{
			Name: info.Name(),
			Test: strings.HasSuffix(info.Name(), "_test.go"),
			AST:  f,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	var dirs []string
	for d := range byDir {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, d := range dirs {
		files := byDir[d]
		sort.Slice(files, func(i, j int) bool { return files[i].Name < files[j].Name })
		pkgs = append(pkgs, &Package{Path: d, Fset: fset, Files: files})
	}
	return pkgs, nil
}

// ModulePass carries the whole type-checked module into a
// call-graph-aware analyzer.
type ModulePass struct {
	Analyzer *Analyzer
	Mod      *Module

	report func(Finding)
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Mod.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunSuite applies the analyzers to the module and returns their
// findings sorted by position.
func RunSuite(mod *Module, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, a := range analyzers {
		pass := &ModulePass{Analyzer: a, Mod: mod, report: func(f Finding) { findings = append(findings, f) }}
		if err := a.RunModule(pass); err != nil {
			return nil, fmt.Errorf("msvet: %s: %v", a.Name, err)
		}
	}
	sortFindings(findings)
	return findings, nil
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// exprString renders an expression compactly for matching and
// messages (selector chains, identifiers, calls, indexes).
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "()"
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.SliceExpr:
		return exprString(e.X) + "[...]"
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.UnaryExpr:
		return e.Op.String() + exprString(e.X)
	default:
		return fmt.Sprintf("<%T>", e)
	}
}
