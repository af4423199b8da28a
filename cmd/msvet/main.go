// Command msvet runs the repository's custom vet suite (see
// internal/msvet): seven analyzers (virttime, lockpair, costcharge,
// stwsafe, atomicguard, barrierflow, lockorder), each applied once to
// the whole type-checked module, and exits non-zero on any finding.
// A structural rule is a //msvet: annotation, not a source grep:
// //msvet:defined-once <callee> names the one function that may call
// <callee>, and lockpair holds it.
//
// Usage:
//
//	go run ./cmd/msvet ./...
//	go run ./cmd/msvet -json ./...       findings as JSON on stdout
//	go run ./cmd/msvet -v ./...          also echo //msvet: annotation
//	                                     justifications
//	go run ./cmd/msvet -lockgraph       emit the static lock-order graph
//	                                     as deterministic JSON and exit
//	go run ./cmd/msvet -dir path/to/pkg  analyze another module root
//	                                     (the fault-injection fixtures)
//
// The suite is a stdlib-only go/analysis-style driver (no module proxy
// in the build environment, so golang.org/x/tools and the
// `go vet -vettool` protocol are unavailable); type checking resolves
// the standard library through the GOROOT source importer. `./...`
// arguments are accepted for familiarity but the suite always analyzes
// the entire module containing the working directory (or -dir).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"mst/internal/msvet"
)

func main() {
	jsonOut := flag.Bool("json", false, "print findings as JSON")
	verbose := flag.Bool("v", false, "echo //msvet: annotation justifications")
	lockgraph := flag.Bool("lockgraph", false, "emit the static lock-order graph as JSON and exit")
	dirFlag := flag.String("dir", "", "module root to analyze (default: the module containing the working directory)")
	flag.Parse()

	root := *dirFlag
	if root == "" {
		var err error
		root, err = findModuleRoot()
		if err != nil {
			fatal(err)
		}
	}
	mod, err := msvet.LoadTyped(root)
	if err != nil {
		fatal(err)
	}

	if *lockgraph {
		os.Stdout.Write(mod.LockGraph().Data().JSON())
		return
	}

	analyzers := msvet.Analyzers()
	findings, err := msvet.RunSuite(mod, analyzers)
	if err != nil {
		fatal(err)
	}

	if *verbose {
		for _, a := range mod.Ann.All {
			pos := mod.Fset.Position(a.Pos)
			just := a.Justification
			if just == "" {
				just = "(no justification given)"
			}
			fmt.Printf("msvet: annotation %s:%d: //msvet:%s %s — %s\n",
				pos.Filename, pos.Line, a.Kind, a.Target, just)
		}
	}

	if *jsonOut {
		type jsonFinding struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
				Analyzer: f.Analyzer, Message: f.Message,
			})
		}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(append(b, '\n'))
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "msvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	if !*jsonOut {
		fmt.Printf("msvet: ok (%d packages, %d analyzers)\n", len(mod.Pkgs), len(analyzers))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "msvet: %v\n", err)
	os.Exit(2)
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
