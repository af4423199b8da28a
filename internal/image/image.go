package image

import (
	"embed"
	"fmt"
	"slices"
	"sort"
	"sync"

	"mst/internal/firefly"
	"mst/internal/heap"
	"mst/internal/interp"
	"mst/internal/object"
)

//go:embed st/*.st
var kernelFS embed.FS

// KernelSources returns the embedded kernel source files in load order.
func KernelSources() []struct{ Name, Source string } {
	return slices.Clone(kernelSources())
}

// kernelSources reads the embedded files once: every boot files in the
// same text.
var kernelSources = sync.OnceValue(func() []struct{ Name, Source string } {
	entries, err := kernelFS.ReadDir("st")
	if err != nil {
		panic("image: embedded sources missing: " + err.Error())
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	out := make([]struct{ Name, Source string }, 0, len(names))
	for _, n := range names {
		b, err := kernelFS.ReadFile("st/" + n)
		if err != nil {
			panic("image: " + err.Error())
		}
		out = append(out, struct{ Name, Source string }{n, string(b)})
	}
	return out
})

// BootOn builds a complete virtual image on m: heap, VM, genesis, and
// the full kernel library filed in. Extra sources (benchmarks,
// applications) are filed in afterwards. The caller owns the machine,
// so it can attach observers or set costs first.
func BootOn(m *firefly.Machine, hcfg heap.Config, vcfg interp.Config, extraSources ...string) (*interp.VM, error) {
	hcfg.LocksEnabled = vcfg.MSMode
	h := heap.New(m, hcfg)
	vm := interp.New(m, h, vcfg)
	vm.Genesis()
	vm.StartInterpreters()
	for _, src := range kernelSources() {
		if err := FileIn(vm, src.Name, src.Source); err != nil {
			return nil, fmt.Errorf("image: kernel file-in: %w", err)
		}
	}
	for i, src := range extraSources {
		if err := FileIn(vm, fmt.Sprintf("extra-%d", i), src); err != nil {
			return nil, fmt.Errorf("image: extra file-in: %w", err)
		}
	}
	installSnapshotPrim(vm)
	return vm, nil
}

// EvaluateToString evaluates source and answers the result's
// printString, using the image's own printing code. The source is
// evaluated inside a block so that it may open with temporary
// declarations and contain multiple statements.
func EvaluateToString(vm *interp.VM, source string) (string, error) {
	res, err := vm.Evaluate("([" + source + "] value) printString")
	if err != nil {
		return "", err
	}
	if res.Value == object.Nil {
		return "nil", nil
	}
	if !res.Value.IsPtr() {
		return vm.DescribeOOP(res.Value), nil
	}
	return vm.GoString(res.Value), nil
}
