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
// flipping it back answers the first compile again without a recompile.
func TestDoItMemoReasksTheEnv(t *testing.T) {
	env := &scriptedEnv{
		ivars:   map[string]int{"count": 0},
		globals: map[string]bool{"Limit": true, "Other": true},
	}
	compiles := 0
	memo := &memo{gen: func(source string, env compiler.Env) (*compiler.Method, error) {
		compiles++
		return compiler.CompileExpression(source, env)
	}, max: doitMemoMax}
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
	asks := len(memo.latest(src).asks)
	if asks != 6 {
		t.Fatalf("recorded %d questions, want 6: %+v", asks, memo.latest(src).asks)
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
	for _, f := range flips {
		f.flip()
		flipped := compile()
		if flipped == first {
			t.Fatalf("%s: stale method reused", f.name)
		}
		if compile() != flipped {
			t.Fatalf("%s: recompile was not memoized", f.name)
		}
		f.undo()
		before := compiles
		if back := compile(); back != first || compiles != before {
			t.Fatalf("%s: undone, first method back %v, %d recompiles", f.name, back == first, compiles-before)
		}
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
	if back := compile(); back != first {
		t.Fatalf("after the error, the first method did not answer:\n%+v\n%+v", back, first)
	}
}

// TestMethodMemoKeepsEveryShape: the method memo keeps one compile per
// distinct answer list, so a flip and its undo each answer a compile
// already made — no recompile — while a flip to answers not seen before
// compiles; a compile error is counted, never kept, and leaves the kept
// compiles answering; and a miss at the bound drops the table.
func TestMethodMemoKeepsEveryShape(t *testing.T) {
	env := &scriptedEnv{ivars: map[string]int{"slot": 0}, globals: map[string]bool{"Limit": true}}
	compiles := 0
	c := &memo{gen: func(source string, env compiler.Env) (*compiler.Method, error) {
		compiles++
		return compiler.CompileMethod(source, env)
	}, max: 3}
	const src = "get ^slot + Limit"
	compile := func() *compiler.Method {
		t.Helper()
		m, err := c.compile(src, env)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	narrow := compile()
	env.ivars["slot"] = 1
	wide := compile()
	if wide == narrow || compiles != 2 {
		t.Fatalf("a moved instance variable: same method %v, %d compiles", wide == narrow, compiles)
	}
	for i := 0; i < 2; i++ {
		env.ivars["slot"] = 0
		if compile() != narrow {
			t.Fatal("the first shape was recompiled")
		}
		env.ivars["slot"] = 1
		if compile() != wide {
			t.Fatal("the second shape was recompiled")
		}
	}
	if compiles != 2 || len(c.table[src]) != 2 {
		t.Fatalf("%d compiles, %d kept; want 2 and 2", compiles, len(c.table[src]))
	}

	delete(env.globals, "Limit") // Limit undeclared: the source no longer compiles
	for i := 0; i < 2; i++ {
		if m, err := c.compile(src, env); err == nil {
			t.Fatalf("compiled an undeclared variable: %+v", m)
		}
	}
	if compiles != 4 || len(c.table[src]) != 2 {
		t.Fatalf("after two errors: %d compiles, %d kept; want 4 and 2", compiles, len(c.table[src]))
	}
	env.globals["Limit"] = true
	if compile() != wide {
		t.Fatal("after the errors, the kept compile did not answer")
	}

	for _, other := range []string{"a ^1", "b ^2"} {
		if _, err := c.compile(other, env); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.table) != 1 || c.n != 1 || c.table[src] != nil {
		t.Fatalf("a miss at the bound kept %d sources, %d compiles", len(c.table), c.n)
	}
}

// TestMethodMemoAccessorInTwoShapes: one accessor source installed in two
// classes that hold the variable at different field indices answers the
// right field in each, and installing it again in either compiles nothing.
func TestMethodMemoAccessorInTwoShapes(t *testing.T) {
	vm := testVM(t, 1, nil)
	p := vm.Interps[0].p
	narrow := vm.CreateClass(p, "Narrow", vm.Specials.Object, []string{"value"}, KindFixed, "Tests")
	wide := vm.CreateClass(p, "Wide", vm.Specials.Object, []string{"pad", "value"}, KindFixed, "Tests")
	install := func() {
		t.Helper()
		for _, cls := range []object.OOP{narrow, wide, narrow, wide} {
			for _, src := range []string{"value ^value", "value: v value := v"} {
				if _, err := vm.CompileAndInstall(p, cls, src, "tests"); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	install()
	misses := MethodMemoMisses()
	install()
	if n := MethodMemoMisses() - misses; n != 0 {
		t.Fatalf("reinstalling compiled %d methods", n)
	}
	const src = "| n w | n := Narrow new. w := Wide new. n value: 3. w value: 4. " +
		"(n value * 1000) + (w value * 100) + ((n instVarAt: 1) * 10) + (w instVarAt: 2)"
	if got := evalInt(t, vm, src); got != 3434 {
		t.Fatalf("%s = %d, want 3434", src, got)
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
		if m := doits.latest(src).m; shared == nil {
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

// TestDoItMemoIsBoundedAndLive: from an empty memo, one source more than
// the bound drops the map instead of growing it, every answer stays
// right, a source that fails to compile fails every time, and a global
// defined from image code — which no Go-side hook sees — is picked up by
// the next evaluation of a memoized source.
func TestDoItMemoIsBoundedAndLive(t *testing.T) {
	vm := testVM(t, 1, nil)
	doits.drop() // the memo is the process's: count from empty
	for i := 0; i <= doitMemoMax; i++ {
		if got := evalInt(t, vm, fmt.Sprintf("%d + 1", i+1000)); got != int64(i+1001) {
			t.Fatalf("source %d = %d", i, got)
		}
		if len(doits.table) > doitMemoMax {
			t.Fatalf("memo holds %d entries after %d sources, bound %d", len(doits.table), i+1, doitMemoMax)
		}
	}
	if n := len(doits.table); n != 1 {
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
	if doits.latest("3 + + 4").m != nil {
		t.Fatal("a compile error was memoized")
	}

	// `answer` is lower-case, so it compiles only once it is a global.
	const src = "answer + 1"
	if _, err := vm.Evaluate(src); err == nil {
		t.Fatal("compiled an undeclared variable")
	}
	sd := vm.Specials.SystemDictionary
	if err := vm.InstallSource(sd, "at: key put: value <primitive: 131> ^value", "mini"); err != nil {
		t.Fatal(err)
	}
	const define = "Smalltalk at: #answer put: 41"
	evalInt(t, vm, define)
	for i := 0; i < 2; i++ { // a miss, then a hit
		if got := evalInt(t, vm, src); got != 42 {
			t.Fatalf("%s, run %d = %d", src, i, got)
		}
	}
	if doits.latest(src).m == nil || doits.latest(define).m == nil {
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
	if vm.work != nil {
		t.Fatal("a closure was left queued")
	}
	vm.M.SetTimeLimit(60_000_000)
	if got := evalInt(t, vm, "3 + 4"); got != 7 {
		t.Fatalf("3 + 4 = %d", got)
	}
	if ran || vm.SysDictAt("Stale") != object.Invalid {
		t.Fatalf("stale work ran: closure %v, doIt %v", ran, vm.SysDictAt("Stale") != object.Invalid)
	}
}
