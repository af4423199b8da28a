package interp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mst/internal/compiler"
	"mst/internal/firefly"
	"mst/internal/object"
)

// scriptedEnv answers from two tables the test rewrites between
// compiles, and counts what it was asked.
type scriptedEnv struct {
	ivars   map[string]int
	globals map[string]bool
	asked   int
}

func (e *scriptedEnv) InstVarIndex(name string) (int, bool) {
	e.asked++
	i, ok := e.ivars[name]
	return i, ok
}

func (e *scriptedEnv) IsGlobal(name string) bool {
	e.asked++
	return e.globals[name]
}

// TestDoItMemoReasksTheEnv: a hit costs exactly the recorded questions
// and answers the very *Method the miss built; any one flipped answer —
// a global gone, an instance variable moved or appeared — recompiles, and
// flipping it back does not resurrect the old entry by accident.
func TestDoItMemoReasksTheEnv(t *testing.T) {
	env := &scriptedEnv{
		ivars:   map[string]int{"count": 0},
		globals: map[string]bool{"Limit": true, "Other": true},
	}
	memo := doitMemo{}
	const src = "count := count + Limit. Other"
	compile := func() *compiler.Method {
		t.Helper()
		m, err := memo.compile(src, env)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	first := compile()
	// count (store target and operand), Limit and Other: each name asks
	// InstVarIndex, the two globals then IsGlobal.
	asks := len(memo[src].asks)
	if asks != 6 {
		t.Fatalf("recorded %d questions, want 6: %+v", asks, memo[src].asks)
	}
	for i := 0; i < 3; i++ {
		env.asked = 0
		if m := compile(); m != first {
			t.Fatalf("hit %d built a new method", i)
		}
		if env.asked != asks {
			t.Fatalf("hit %d asked %d questions, want the %d recorded", i, env.asked, asks)
		}
	}

	flips := []struct {
		name string
		flip func()
		undo func()
	}{
		{"instance variable moves", func() { env.ivars["count"] = 1 }, func() { env.ivars["count"] = 0 }},
		{"global becomes an instance variable", func() { env.ivars["Limit"] = 2 }, func() { delete(env.ivars, "Limit") }},
		{"another global becomes an instance variable", func() { env.ivars["Other"] = 3 }, func() { delete(env.ivars, "Other") }},
	}
	cur := first
	for _, f := range flips {
		f.flip()
		flipped := compile()
		if flipped == cur {
			t.Fatalf("%s: stale method reused", f.name)
		}
		if compile() != flipped {
			t.Fatalf("%s: recompile was not memoized", f.name)
		}
		f.undo()
		back := compile()
		if back == flipped || back == cur {
			t.Fatalf("%s: undone, but an old method came back", f.name)
		}
		if !reflect.DeepEqual(back, first) {
			t.Fatalf("%s: undone, compile differs from the first:\n%+v\n%+v", f.name, back, first)
		}
		cur = back
	}

	// A flip that makes the source uncompilable: the error is returned
	// every time it is asked for, never memoized, and the entry from
	// before the flip does not answer in its place.
	delete(env.globals, "Limit")
	for i := 0; i < 2; i++ {
		env.asked = 0
		if m, err := memo.compile(src, env); err == nil {
			t.Fatalf("compiled an undeclared variable: %+v", m)
		}
		if env.asked < asks/2 {
			t.Fatalf("failing compile %d asked only %d questions", i, env.asked)
		}
	}
	env.globals["Limit"] = true
	if back := compile(); !reflect.DeepEqual(back, first) {
		t.Fatalf("after the error, compile differs from the first:\n%+v\n%+v", back, first)
	}
}

// TestDoItMemoSharedMethodIsNeverMutated: every materialization reads
// the one memoized *compiler.Method; a hundred of them, with scavenges
// in between, leave it deep-equal to a private compile.
func TestDoItMemoSharedMethodIsNeverMutated(t *testing.T) {
	vm := testVM(t, 1, nil)
	const src = "| a | a := Array new: 300. a at: 1 put: #(1 $a 'str' #sym 2.5 (3 4)). (a at: 1) size + 1000000"
	want, err := compiler.CompileExpression(src, vm.EnvForClass(vm.Specials.UndefinedObject))
	if err != nil {
		t.Fatal(err)
	}
	scavenges := vm.H.Stats().Scavenges
	var shared *compiler.Method
	for i := 0; i < 100; i++ {
		if got := evalInt(t, vm, src); got != 1000006 {
			t.Fatalf("run %d = %d", i, got)
		}
		if m := vm.doits[src].m; shared == nil {
			shared = m
		} else if m != shared {
			t.Fatalf("run %d recompiled", i)
		}
	}
	if vm.H.Stats().Scavenges == scavenges {
		t.Fatal("no scavenge ran between materializations")
	}
	if !reflect.DeepEqual(shared, want) {
		t.Fatalf("shared method changed:\n got %+v\nwant %+v", shared, want)
	}
}

// TestDoItMemoIsBoundedAndLive: one source more than the bound drops the
// map instead of growing it, every answer stays right, a source that
// fails to compile fails every time, and a global defined from image
// code — which no Go-side hook sees — is picked up by the next evaluation
// of a memoized source.
func TestDoItMemoIsBoundedAndLive(t *testing.T) {
	vm := testVM(t, 1, nil)
	for i := 0; i <= doitMemoMax; i++ {
		if got := evalInt(t, vm, fmt.Sprintf("%d + 1", i+1000)); got != int64(i+1001) {
			t.Fatalf("source %d = %d", i, got)
		}
		if len(vm.doits) > doitMemoMax {
			t.Fatalf("memo holds %d entries after %d sources, bound %d", len(vm.doits), i+1, doitMemoMax)
		}
	}
	if n := len(vm.doits); n != 1 {
		t.Fatalf("memo holds %d entries after the drop, want 1", n)
	}
	if got := evalInt(t, vm, "1000 + 1"); got != 1001 {
		t.Fatalf("dropped source = %d", got)
	}

	for i := 0; i < 3; i++ {
		if _, err := vm.Evaluate("3 + + 4"); err == nil || !strings.Contains(err.Error(), "compile DoIt") {
			t.Fatalf("bad source, run %d: %v", i, err)
		}
	}
	if _, ok := vm.doits["3 + + 4"]; ok {
		t.Fatal("a compile error was memoized")
	}

	// `answer` is lower-case, so it compiles only once it is a global.
	const src = "answer + 1"
	if _, err := vm.Evaluate(src); err == nil {
		t.Fatal("compiled an undeclared variable")
	}
	sd := vm.Specials.SystemDictionary
	if err := vm.InstallSource(sd, vm.EnvForClass(sd), "at: key put: value <primitive: 131> ^value", "mini"); err != nil {
		t.Fatal(err)
	}
	const define = "Smalltalk at: #answer put: 41"
	evalInt(t, vm, define)
	for i := 0; i < 2; i++ { // a miss, then a hit
		if got := evalInt(t, vm, src); got != 42 {
			t.Fatalf("%s, run %d = %d", src, i, got)
		}
	}
	if vm.doits[src].m == nil || vm.doits[define].m == nil {
		t.Fatal("the sources were not memoized")
	}
}

// TestDoLeavesNothingQueuedOnTimeLimit: a Do whose Run stops on the time
// limit before interpreter 0 reached the closure takes the closure back,
// so the next evaluation does not run it first.
func TestDoLeavesNothingQueuedOnTimeLimit(t *testing.T) {
	vm := testVM(t, 1, nil)
	evalInt(t, vm, "3 + 4") // past virtual time zero
	vm.M.SetTimeLimit(0)
	ran := false
	if err := vm.Do(func(*firefly.Proc) { ran = true }); err == nil || !strings.Contains(err.Error(), "did not run") {
		t.Fatalf("Do under an expired limit: %v", err)
	}
	if _, err := vm.Evaluate("Smalltalk at: #Stale put: 1"); err == nil {
		t.Fatal("Evaluate under an expired limit succeeded")
	}
	if n := len(vm.pendingWork); n != 0 {
		t.Fatalf("%d closures left queued", n)
	}
	vm.M.SetTimeLimit(60_000_000)
	if got := evalInt(t, vm, "3 + 4"); got != 7 {
		t.Fatalf("3 + 4 = %d", got)
	}
	if ran || vm.SysDictAt("Stale") != object.Invalid {
		t.Fatalf("stale work ran: closure %v, doIt %v", ran, vm.SysDictAt("Stale") != object.Invalid)
	}
}
