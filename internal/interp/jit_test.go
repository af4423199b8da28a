package interp

import (
	"testing"

	"mst/internal/bytecode"
	"mst/internal/heap"
	"mst/internal/jit"
)

// jitTestVM boots a one-processor test VM with the msjit tier on or off
// under polymorphic inline caches (the tier's designed configuration).
func jitTestVM(t *testing.T, on bool) *VM {
	t.Helper()
	return icTestVM(t, 1, ICPoly, func(cfg *Config, _ *heap.Config) { cfg.JIT = on })
}

// jitProbeSrc has a branch whose taken arm jumps to the shared return:
// that return is an interior pc of the fused group `push b; returnTop`
// and heads no group of its own.
const jitProbeSrc = "pick: flag a: a b: b ^flag ifTrue: [a] ifFalse: [b]"

// jitProbeDrive runs both arms often enough to compile pick:a:b: and
// then take the jump into the group's interior from compiled code.
const jitProbeDrive = `| p s |
	p := JitProbe new.
	s := 0.
	1 to: 6 do: [:i | s := s * 10 + (p pick: i \\ 2 = 0 a: 1 b: 2)].
	s`

func installJitProbe(t *testing.T, vm *VM) {
	t.Helper()
	p := vm.Interps[0].p
	cls := vm.CreateClass(p, "JitProbe", vm.Specials.Object, nil, KindFixed, "Tests")
	if _, err := vm.CompileAndInstall(p, cls, jitProbeSrc, "tests"); err != nil {
		t.Fatal(err)
	}
}

// compiledBody finds the compiled form and the decoded bytecode of the
// method with the given selector in interpreter 0's tier state.
func compiledBody(t *testing.T, vm *VM, selector string) (*jitCode, []byte) {
	t.Helper()
	in := vm.Interps[0]
	h := vm.H
	for m, icm := range in.ic {
		if sel := h.Fetch(m, CMSelector); vm.SymbolName(sel) != selector {
			continue
		}
		jc := icm.jc
		if jc == nil {
			t.Fatalf("%s never compiled", selector)
		}
		return jc, h.Bytes(h.Fetch(m, CMBytes))
	}
	t.Fatalf("%s has no inline-cache state: it never ran", selector)
	return nil, nil
}

// TestJITClosuresOnlyAtFuseHeads pins the tier's structure: a compiled
// method carries a closure exactly at the head pc of every jit.Fuse
// group and nowhere else, so every other pc — the interior of a group
// included — can only execute through the step() switch. The probe
// method has a jump that lands on such an interior pc; taking it from
// compiled code must give the interpreter's answer.
func TestJITClosuresOnlyAtFuseHeads(t *testing.T) {
	off := jitTestVM(t, false)
	installJitProbe(t, off)
	want := evalInt(t, off, jitProbeDrive)
	if want != 212121 {
		t.Fatalf("interpreted probe = %d, want 212121", want)
	}

	vm := jitTestVM(t, true)
	installJitProbe(t, vm)
	if got := evalInt(t, vm, jitProbeDrive); got != want {
		t.Errorf("compiled probe = %d, interpreter says %d", got, want)
	}

	jc, code := compiledBody(t, vm, "pick:a:b:")
	prog, err := jit.Compile(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(jc.fns) != len(code) {
		t.Fatalf("closure array has %d entries for %d code bytes", len(jc.fns), len(code))
	}
	type group struct{ head, end int }
	var groups []group
	heads := map[int]bool{}
	for i := range prog.Instrs {
		if f := jit.Fuse(prog, i); f != nil {
			pc := prog.Instrs[i].PC
			heads[pc] = true
			groups = append(groups, group{pc, f.NextPC})
		}
	}
	if len(groups) == 0 {
		t.Fatal("probe method has no fused group")
	}
	for pc, fn := range jc.fns {
		if (fn != nil) != heads[pc] {
			t.Errorf("pc %d: closure present = %v, heads a fused group = %v", pc, fn != nil, heads[pc])
		}
	}

	// The jump into the interior of a group, landing on a switch-only pc.
	found := false
	for _, ins := range prog.Instrs {
		if ins.Op != bytecode.OpJump {
			continue
		}
		for _, g := range groups {
			if g.head < ins.Target && ins.Target < g.end && jc.fns[ins.Target] == nil {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no jump lands on a closure-free interior pc of a fused group:\n%s",
			bytecode.Disassemble(code, nil))
	}
	if st := vm.Stats(); st.JITBytecodes == 0 || st.JITDeopts != 0 {
		t.Errorf("probe ran %d compiled bytecodes with %d deopts, want >0 and 0",
			st.JITBytecodes, st.JITDeopts)
	}
}

// TestCompileThresholdCountsContextLoads pins what jit.CompileThreshold
// counts: context loads of a method, not invocations. A method invoked
// once is compiled as soon as anything it calls returns into it (the
// return reloads its context) or it evaluates a block twice; only a
// method that is never re-entered stays interpreted. The doIt calling
// them is exempt however often it is loaded.
func TestCompileThresholdCountsContextLoads(t *testing.T) {
	vm := jitTestVM(t, true)
	p := vm.Interps[0].p
	cls := vm.CreateClass(p, "LoadProbe", vm.Specials.Object, nil, KindFixed, "Tests")
	for _, src := range []string{
		"straight ^3 + 4",
		"viaReturn ^self leaf",
		"leaf ^3",
		"viaBlock | b | b := [:x | x + 1]. ^(b value: 1) + (b value: 2)",
	} {
		if _, err := vm.CompileAndInstall(p, cls, src, "tests"); err != nil {
			t.Fatal(err)
		}
	}
	compiles := func(source string, want int64) uint64 {
		t.Helper()
		before := vm.Stats().JITCompiles
		if got := evalInt(t, vm, source); got != want {
			t.Errorf("%q = %d, want %d", source, got, want)
		}
		return vm.Stats().JITCompiles - before
	}
	// Straight-line special sends: loaded once, never re-entered.
	if n := compiles("LoadProbe new straight", 7); n != 0 {
		t.Errorf("a method that is never re-entered compiled %d methods, want 0", n)
	}
	// One real send: #leaf is activated for the first time (load 1 of
	// its own plan, not compiled); the return into #viaReturn is that
	// method's second load.
	if n := compiles("LoadProbe new viaReturn", 3); n != 1 {
		t.Errorf("a method re-entered by one return compiled %d methods, want 1 (viaReturn)", n)
	}
	// One block evaluated twice: each evaluation loads a context of
	// #viaBlock, so it is compiled although it is invoked once.
	if n := compiles("LoadProbe new viaBlock", 5); n != 1 {
		t.Errorf("a method evaluating one block twice compiled %d methods, want 1 (viaBlock)", n)
	}
	// The same block in a doIt: five loads of the doIt, no compile.
	if n := compiles("| b | b := [:x | x + 1]. (b value: 1) + (b value: 2)", 5); n != 0 {
		t.Errorf("a doIt evaluating one block twice compiled %d methods, want 0", n)
	}
}
