package msvet

import "strings"

// virtualTimePackages are the packages that execute inside (or feed
// state into) the deterministic virtual-time simulation. None of them
// may consult the host clock or host randomness: a run's virtual times
// and counters must be a pure function of the configuration.
// Host-side packages (bench, cmd/*, examples) measure wall-clock
// deliberately and are exempt.
var virtualTimePackages = map[string]bool{
	"internal/firefly":  true,
	"internal/object":   true,
	"internal/bytecode": true,
	"internal/compiler": true,
	"internal/heap":     true,
	"internal/interp":   true,
	"internal/jit":      true,
	"internal/display":  true,
	"internal/image":    true,
	"internal/trace":    true,
	"internal/sanitize": true,
	"internal/core":     true,
	// The image server's scheduling and its open-loop arrival generator
	// are virtual-time: every latency and every admission decision must
	// replay bit-identically from the seed.
	"internal/serve":         true,
	"internal/serve/loadgen": true,
}

// forbiddenImports maps import path → why it is forbidden.
var forbiddenImports = map[string]string{
	"time":         "host wall-clock breaks virtual-time determinism",
	"math/rand":    "host randomness breaks virtual-time determinism",
	"math/rand/v2": "host randomness breaks virtual-time determinism",
}

// VirttimeAnalyzer forbids time and math/rand imports in virtual-time
// packages (non-test files; property tests may seed their own
// generators deterministically or measure host time for reporting).
var VirttimeAnalyzer = &Analyzer{
	Name: "virttime",
	Doc:  "forbid host time/randomness imports in virtual-time packages",
	RunModule: func(pass *ModulePass) error {
		for _, pkg := range pass.Mod.Pkgs {
			if !virtualTimePackages[pkg.Path] {
				continue
			}
			for _, f := range pkg.Files {
				if f.Test {
					continue
				}
				for _, imp := range f.AST.Imports {
					path := strings.Trim(imp.Path.Value, `"`)
					if why, bad := forbiddenImports[path]; bad {
						pass.Reportf(imp.Pos(), "virtual-time package %s imports %q: %s",
							pkg.Path, path, why)
					}
				}
			}
		}
		return nil
	},
}
