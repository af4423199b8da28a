package msvet

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Module is the whole type-checked module: every package's parsed
// files (from LoadModule), one shared go/types universe across them,
// the //msvet: annotation table, and — built lazily, once, for the
// analyzers that need them — the callee-resolution call graph, each
// function's hold walk, the STW-reachable set and the lock-order graph.
//
// The loader is stdlib-only: intra-module imports resolve against the
// packages type-checked earlier in dependency order, and everything
// else (sync, sync/atomic, ...) goes to go/importer's source importer,
// which type-checks the standard library from GOROOT source. No module
// proxy, no export data, no golang.org/x/tools.
type Module struct {
	Root string // directory containing go.mod
	Path string // module path from go.mod (e.g. "mst")
	Fset *token.FileSet
	Pkgs []*Package

	// Types maps Package.Path (module-relative dir, "." for root) to
	// the type-checked package. Only non-test files are type-checked;
	// the analyzers skip test files for the same reason.
	Types map[string]*types.Package
	// Info is one shared type-checker fact table across all packages.
	Info *types.Info
	// Ann is the parsed //msvet: annotation table.
	Ann *Annotations

	graph *CallGraph
	holds map[*FuncNode]*heldFacts
	stw   *stwResult
	lockg *lockGraph
}

// LoadTyped parses and type-checks the module rooted at root (the
// directory containing go.mod).
func LoadTyped(root string) (*Module, error) {
	pkgs, err := LoadModule(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("msvet: no Go packages under %s", root)
	}
	mod := &Module{
		Root:  root,
		Path:  modPath,
		Fset:  pkgs[0].Fset,
		Pkgs:  pkgs,
		Types: map[string]*types.Package{},
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	order, err := topoOrder(mod)
	if err != nil {
		return nil, err
	}
	std := importer.ForCompiler(mod.Fset, "source", nil)
	conf := types.Config{Importer: &moduleImporter{mod: mod, std: std}}
	for _, pkg := range order {
		var files []*ast.File
		for _, f := range pkg.Files {
			if !f.Test {
				files = append(files, f.AST)
			}
		}
		if len(files) == 0 {
			continue
		}
		tp, err := conf.Check(mod.importPath(pkg.Path), mod.Fset, files, mod.Info)
		if err != nil {
			return nil, fmt.Errorf("msvet: type-checking %s: %v", pkg.Path, err)
		}
		mod.Types[pkg.Path] = tp
	}
	mod.Ann = collectAnnotations(mod)
	return mod, nil
}

// importPath maps a module-relative dir to its import path.
func (m *Module) importPath(dir string) string {
	if dir == "." {
		return m.Path
	}
	return m.Path + "/" + dir
}

// relPos renders pos as a root-relative, slash-separated position
// string — stable across checkouts, used for deterministic output.
func (m *Module) relPos(pos token.Pos) string {
	p := m.Fset.Position(pos)
	name := p.Filename
	if rel, err := filepath.Rel(m.Root, name); err == nil {
		name = rel
	}
	return fmt.Sprintf("%s:%d:%d", filepath.ToSlash(name), p.Line, p.Column)
}

// moduleImporter resolves intra-module import paths against the
// packages type-checked so far (dependency order guarantees they are
// present) and delegates everything else to the GOROOT source
// importer.
type moduleImporter struct {
	mod *Module
	std types.Importer
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if dir, ok := im.mod.relDir(path); ok {
		tp := im.mod.Types[dir]
		if tp == nil {
			return nil, fmt.Errorf("intra-module import %s not yet type-checked (import cycle?)", path)
		}
		return tp, nil
	}
	return im.std.Import(path)
}

// relDir maps an import path to a module-relative dir, reporting
// whether the path belongs to this module.
func (m *Module) relDir(path string) (string, bool) {
	if path == m.Path {
		return ".", true
	}
	if strings.HasPrefix(path, m.Path+"/") {
		return path[len(m.Path)+1:], true
	}
	return "", false
}

// modulePath reads the module path from root/go.mod.
func modulePath(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("no module path in %s/go.mod", root)
}

// topoOrder sorts packages so every package is type-checked after the
// intra-module packages it imports. Ties (and everything else) stay in
// LoadModule's sorted-directory order, so the result is deterministic.
func topoOrder(m *Module) ([]*Package, error) {
	byDir := map[string]*Package{}
	for _, p := range m.Pkgs {
		byDir[p.Path] = p
	}
	deps := map[string][]string{}
	for _, p := range m.Pkgs {
		seen := map[string]bool{}
		for _, f := range p.Files {
			if f.Test {
				continue
			}
			for _, imp := range f.AST.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if dir, ok := m.relDir(path); ok && byDir[dir] != nil && !seen[dir] {
					seen[dir] = true
					deps[p.Path] = append(deps[p.Path], dir)
				}
			}
		}
		sort.Strings(deps[p.Path])
	}
	var order []*Package
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(dir string) error
	visit = func(dir string) error {
		switch state[dir] {
		case 1:
			return fmt.Errorf("msvet: import cycle through %s", dir)
		case 2:
			return nil
		}
		state[dir] = 1
		for _, d := range deps[dir] {
			if err := visit(d); err != nil {
				return err
			}
		}
		state[dir] = 2
		order = append(order, byDir[dir])
		return nil
	}
	for _, p := range m.Pkgs {
		if err := visit(p.Path); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// unparen strips redundant parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
