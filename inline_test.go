package mst_test

import (
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// mustInline lists, by package directory, the functions a design
// decision rests on the compiler inlining, named as `-gcflags=-m`
// prints them.
//   - The per-access observer hooks are `if r != nil { r.emit(...) }`
//     wrappers: a detached site costs one pointer test only while the
//     wrapper stays within the inliner's budget (DESIGN §7, hook rule).
//   - The interpreter runs the active context's slots through heap.Frame
//     views: a frame access that costs a call gives the register
//     window's gain back (DESIGN §4).
//   - Three collectors look at an object through (*Heap).refWords, and
//     the TLABs and the parallel scavenger's copy buffers bump through
//     one type: a call there would slow every collector at once
//     (DESIGN §4, the kernel table).
var mustInline = map[string][]string{
	"internal/trace": {"(*Recorder).Emit", "(*Histogram).Record"},
	"internal/sanitize": {
		"(*Checker).OnAcquire", "(*Checker).OnRelease", "(*Checker).OnAccess",
	},
	"internal/interp": {"(*Interp).stackAt"},
	"internal/heap": {
		"(*Frame).Get", "(*Frame).Set", "(*Frame).Put", "(*Frame).Poke",
		"(*Heap).refWords", "(*bump).fits", "(*bump).take",
	},
}

// mustInlineInto lists, by file, callees that must be inlined into it.
// push and pop stay calls: their one out-of-line slow call is 57 of the
// inliner's 80 nodes. What is held is that the frame's fast path is
// inlined into them, so nothing else is called on the way.
var mustInlineInto = map[string][]string{
	"internal/interp/interp.go": {"heap.(*Frame).Poke", "heap.(*Frame).Get", "heap.(*Frame).Put"},
	"internal/heap/scavenge.go": {"(*Heap).refWords", "(*bump).fits", "(*bump).take"},
	"internal/heap/fullgc.go":   {"(*Heap).refWords"},
	"internal/heap/alloc.go":    {"(*bump).fits", "(*bump).take"},
}

// TestMustInline builds the four packages once with -gcflags=-m, using
// the toolchain that runs the test, and checks both tables against the
// compiler's inlining decisions.
func TestMustInline(t *testing.T) {
	var pkgs []string
	for dir := range mustInline {
		pkgs = append(pkgs, "./"+dir)
	}
	goCmd := filepath.Join(runtime.GOROOT(), "bin", "go")
	out, err := exec.Command(goCmd, append([]string{"build", "-gcflags=-m"}, pkgs...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}

	inlinable := map[string]bool{}   // "dir name"
	inlinedInto := map[string]bool{} // "file callee"
	for _, line := range strings.Split(string(out), "\n") {
		pos, msg, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		file, _, _ := strings.Cut(pos, ":")
		if name, ok := strings.CutPrefix(msg, "can inline "); ok {
			name, _, _ = strings.Cut(name, " ")
			inlinable[path.Dir(file)+" "+name] = true
		} else if callee, ok := strings.CutPrefix(msg, "inlining call to "); ok {
			callee, _, _ = strings.Cut(callee, " ")
			inlinedInto[file+" "+callee] = true
		}
	}

	for dir, fns := range mustInline {
		for _, fn := range fns {
			if !inlinable[dir+" "+fn] {
				t.Errorf("%s: %s no longer inlines", dir, fn)
			}
		}
	}
	for file, callees := range mustInlineInto {
		for _, callee := range callees {
			if !inlinedInto[file+" "+callee] {
				t.Errorf("%s: %s is no longer inlined here", file, callee)
			}
		}
	}
}
