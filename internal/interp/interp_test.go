package interp

import (
	"fmt"
	"strings"
	"testing"

	"mst/internal/display"
	"mst/internal/firefly"
	"mst/internal/heap"
	"mst/internal/object"
)

// testVM boots a VM with a minimal kernel (no image sources) on nprocs
// virtual processors and starts its interpreters.
func testVM(t *testing.T, nprocs int, mutate func(*Config, *heap.Config)) *VM {
	t.Helper()
	vm := bootTestVM(t, nprocs, mutate)
	vm.StartInterpreters()
	return vm
}

// bootTestVM is testVM before StartInterpreters, for tests that install
// work functions of their own.
func bootTestVM(t *testing.T, nprocs int, mutate func(*Config, *heap.Config)) *VM {
	t.Helper()
	cfg := DefaultConfig()
	hcfg := heap.DefaultConfig()
	hcfg.OldWords = 512 << 10
	hcfg.EdenWords = 8 << 10
	hcfg.SurvivorWords = 2 << 10
	if mutate != nil {
		mutate(&cfg, &hcfg)
	}
	hcfg.LocksEnabled = cfg.MSMode
	m := firefly.New(nprocs, firefly.DefaultCosts())
	m.SetTimeLimit(60_000_000) // 60 virtual seconds: plenty, bounds hangs
	h := heap.New(m, hcfg)
	vm := New(m, h, cfg)
	vm.Genesis()
	installMiniKernel(t, vm)
	t.Cleanup(m.Shutdown)
	return vm
}

// installMiniKernel gives the test image just enough behaviour to run
// expressions: allocation, block evaluation, processes, semaphores.
func installMiniKernel(t *testing.T, vm *VM) {
	t.Helper()
	p := vm.Interps[0].p
	s := &vm.Specials
	meta := func(cls object.OOP) object.OOP { return vm.H.ClassOf(cls) }
	install := func(cls object.OOP, src string) {
		t.Helper()
		if _, err := vm.CompileAndInstall(p, cls, src, "mini"); err != nil {
			t.Fatalf("install %q: %v", src, err)
		}
	}
	install(s.Behavior, "new <primitive: 50> ^self error: 'new failed'")
	install(s.Behavior, "new: size <primitive: 51> ^self error: 'new: failed'")
	install(s.Behavior, "basicNew <primitive: 50> ^self error: 'basicNew failed'")
	install(s.Object, "error: msg <primitive: 110> ^nil")
	install(s.Object, "yourself ^self")
	install(s.Object, "isNil ^false")
	install(s.UndefinedObject, "isNil ^true")
	install(s.Object, "doesNotUnderstand: aMessage self error: 'does not understand'. ^nil")
	install(s.Object, "identityHash <primitive: 43> ^0")
	install(s.Object, "shallowCopy <primitive: 54> ^self error: 'copy failed'")
	install(s.Object, "instVarAt: i <primitive: 52> ^self error: 'instVarAt: failed'")
	install(s.Object, "perform: sel <primitive: 65> ^self error: 'perform failed'")
	install(s.Object, "perform: sel with: a <primitive: 66> ^self error: 'perform failed'")
	install(s.Object, "perform: sel with: a with: b <primitive: 67> ^self error: 'perform failed'")
	install(s.Object, "perform: sel withArguments: args <primitive: 68> ^self error: 'perform failed'")
	install(s.BlockContext, "value <primitive: 60> ^self error: 'wrong block arity'")
	install(s.BlockContext, "value: a <primitive: 61> ^self error: 'wrong block arity'")
	install(s.BlockContext, "value: a value: b <primitive: 62> ^self error: 'wrong block arity'")
	install(s.BlockContext, "valueWithArguments: args <primitive: 64> ^self error: 'bad args'")
	install(s.BlockContext, "newProcess <primitive: 74> ^self error: 'newProcess failed'")
	install(s.BlockContext, "fork ^self newProcess resume")
	install(meta(s.Semaphore), "new ^self basicNew setSignals")
	install(s.Semaphore, "setSignals excessSignals := 0")
	install(s.Semaphore, "signal <primitive: 70> ^self error: 'signal failed'")
	install(s.Semaphore, "wait <primitive: 71> ^self error: 'wait failed'")
	install(s.Process, "resume <primitive: 72> ^self error: 'resume failed'")
	install(s.Process, "suspend <primitive: 73> ^self error: 'suspend failed'")
	install(s.Process, "terminate <primitive: 75> ^self error: 'terminate failed'")
	install(s.Process, "priority: p <primitive: 79> ^self error: 'priority failed'")
	install(s.Process, "canRun <primitive: 78> ^false")
	install(s.ProcessorScheduler, "thisProcess <primitive: 77> ^nil")
	install(s.ProcessorScheduler, "yield <primitive: 76> ^nil")
	install(s.ProcessorScheduler, "canRun: aProcess <primitive: 78> ^false")
	install(s.ProcessorScheduler, "activeProcess ^self thisProcess")
	install(s.SmallInteger, "+ aNumber <primitive: 1> ^self error: 'overflow'")
	install(s.SmallInteger, "- aNumber <primitive: 2> ^self error: 'overflow'")
	install(s.SmallInteger, "* aNumber <primitive: 9> ^self error: 'overflow'")
	install(s.SmallInteger, "// aNumber <primitive: 12> ^self error: 'division by zero'")
	install(s.SmallInteger, "\\\\ aNumber <primitive: 11> ^self error: 'division by zero'")
	install(s.Object, "at: i <primitive: 30> ^self error: 'index out of range'")
	install(s.Object, "at: i put: v <primitive: 31> ^self error: 'index out of range'")
	install(s.Object, "size <primitive: 32> ^0")
	install(s.Object, "== other <primitive: 40> ^false")
	install(s.Object, "= other ^self == other")
	install(s.Object, "~= other ^(self = other) not")
	install(s.String, "asSymbol <primitive: 82> ^self error: 'asSymbol failed'")
	install(s.Symbol, "asString <primitive: 83> ^self error: 'asString failed'")
	install(meta(s.Object), "compileTest: src <primitive: 85> ^nil")
	install(meta(s.Array), "with: a | r | r := self new: 1. r at: 1 put: a. ^r")
	install(s.SmallInteger, "timesRepeat: aBlock 1 to: self do: [:i | aBlock value]")
}

// evalInt evaluates source expecting a SmallInteger result.
func evalInt(t *testing.T, vm *VM, source string) int64 {
	t.Helper()
	res, err := vm.Evaluate(source)
	if err != nil {
		t.Fatalf("Evaluate(%q): %v (errors: %v)", source, err, vm.Errors())
	}
	if !res.Value.IsInt() {
		t.Fatalf("Evaluate(%q) = %s, want integer", source, vm.DescribeOOP(res.Value))
	}
	return res.Value.Int()
}

func evalOOP(t *testing.T, vm *VM, source string) object.OOP {
	t.Helper()
	res, err := vm.Evaluate(source)
	if err != nil {
		t.Fatalf("Evaluate(%q): %v (errors: %v)", source, err, vm.Errors())
	}
	return res.Value
}

func TestEvaluateArithmetic(t *testing.T) {
	vm := testVM(t, 1, nil)
	cases := []struct {
		src  string
		want int64
	}{
		{"3 + 4", 7},
		{"10 - 15", -5},
		{"6 * 7", 42},
		{"17 // 5", 3},
		{"17 \\\\ 5", 2},
		{"-17 // 5", -4},
		{"-17 \\\\ 5", 3},
		{"2 bitShift: 10", 2048},
		{"255 bitAnd: 15", 15},
		{"(3 + 4) * (10 - 8)", 14},
	}
	for _, c := range cases {
		if got := evalInt(t, vm, c.src); got != c.want {
			t.Errorf("%s = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestEvaluateComparisonsAndBooleans(t *testing.T) {
	vm := testVM(t, 1, nil)
	cases := []struct {
		src  string
		want object.OOP
	}{
		{"3 < 4", object.True},
		{"4 <= 3", object.False},
		{"3 = 3", object.True},
		{"3 ~= 3", object.False},
		{"nil isNil", object.True},
		{"3 isNil", object.False},
		{"(3 < 4) and: [4 < 5]", object.True},
		{"(3 > 4) or: [4 > 5]", object.False},
		{"(3 < 4) not", object.False},
	}
	for _, c := range cases {
		if got := evalOOP(t, vm, c.src); got != c.want {
			t.Errorf("%s = %s", c.src, vm.DescribeOOP(got))
		}
	}
}

func TestEvaluateControlFlow(t *testing.T) {
	vm := testVM(t, 1, nil)
	if got := evalInt(t, vm, "3 < 4 ifTrue: [1] ifFalse: [2]"); got != 1 {
		t.Errorf("ifTrue = %d", got)
	}
	if got := evalInt(t, vm, "| s | s := 0. 1 to: 100 do: [:i | s := s + i]. s"); got != 5050 {
		t.Errorf("to:do: sum = %d", got)
	}
	if got := evalInt(t, vm, "| i | i := 0. [i < 10] whileTrue: [i := i + 2]. i"); got != 10 {
		t.Errorf("whileTrue = %d", got)
	}
	if got := evalInt(t, vm, "| s | s := 0. 10 to: 1 by: -2 do: [:i | s := s + i]. s"); got != 30 {
		t.Errorf("to:by:do: = %d", got)
	}
}

func TestEvaluateBlocks(t *testing.T) {
	vm := testVM(t, 1, nil)
	if got := evalInt(t, vm, "[3 + 4] value"); got != 7 {
		t.Errorf("block value = %d", got)
	}
	if got := evalInt(t, vm, "[:x | x * 2] value: 21"); got != 42 {
		t.Errorf("block value: = %d", got)
	}
	if got := evalInt(t, vm, "[:a :b | a - b] value: 10 value: 4"); got != 6 {
		t.Errorf("value:value: = %d", got)
	}
	src := `| args |
		args := Array new: 2.
		args at: 1 put: 6.
		args at: 2 put: 7.
		[:a :b | a * b] valueWithArguments: args`
	if got := evalInt(t, vm, src); got != 42 {
		t.Errorf("valueWithArguments: = %d", got)
	}
	// Closure over home temps.
	if got := evalInt(t, vm, "| n blk | n := 10. blk := [:x | x + n]. n := 20. blk value: 1"); got != 21 {
		t.Errorf("home temp capture = %d", got)
	}
}

func TestEvaluateObjectsAndArrays(t *testing.T) {
	vm := testVM(t, 1, nil)
	if got := evalInt(t, vm, "(Array new: 5) size"); got != 5 {
		t.Errorf("array size = %d", got)
	}
	if got := evalInt(t, vm, "| a | a := Array new: 3. a at: 2 put: 99. a at: 2"); got != 99 {
		t.Errorf("at:put: = %d", got)
	}
	if got := evalOOP(t, vm, "(Array new: 2) == (Array new: 2)"); got != object.False {
		t.Error("distinct arrays identical")
	}
	if got := evalOOP(t, vm, "3 class"); got != vm.Specials.SmallInteger {
		t.Errorf("3 class = %s", vm.DescribeOOP(got))
	}
	if got := evalOOP(t, vm, "Array class class"); got != vm.Specials.Metaclass {
		t.Errorf("Array class class = %s", vm.DescribeOOP(got))
	}
	str := evalOOP(t, vm, "'hello'")
	if vm.GoString(str) != "hello" {
		t.Errorf("string literal = %q", vm.GoString(str))
	}
	if got := evalInt(t, vm, "'hello' size"); got != 5 {
		t.Errorf("string size = %d", got)
	}
	sym := evalOOP(t, vm, "'abc' asSymbol")
	if sym != vm.InternSymbol(vm.Interps[0].p, "abc") {
		t.Error("asSymbol did not intern")
	}
}

func TestEvaluateMethodDefinitionAndSend(t *testing.T) {
	vm := testVM(t, 1, nil)
	p := vm.Interps[0].p
	// Define a class with state and methods, then drive it.
	cls := vm.CreateClass(p, "Counter", vm.Specials.Object, []string{"count"}, KindFixed, "Tests")
	if cls == object.Invalid {
		t.Fatal("CreateClass failed")
	}
	mustInstall := func(c object.OOP, src string) {
		if _, err := vm.CompileAndInstall(p, c, src, "tests"); err != nil {
			t.Fatal(err)
		}
	}
	mustInstall(cls, "init count := 0")
	mustInstall(cls, "increment count := count + 1. ^count")
	mustInstall(cls, "count ^count")
	mustInstall(cls, "addAll: n 1 to: n do: [:i | self increment]. ^count")
	if got := evalInt(t, vm, "| c | c := Counter new. c init. c increment. c increment. c count"); got != 2 {
		t.Errorf("counter = %d", got)
	}
	if got := evalInt(t, vm, "| c | c := Counter new. c init. c addAll: 10"); got != 10 {
		t.Errorf("addAll: = %d", got)
	}
}

func TestEvaluateSuperSends(t *testing.T) {
	vm := testVM(t, 1, nil)
	p := vm.Interps[0].p
	a := vm.CreateClass(p, "SuperA", vm.Specials.Object, nil, KindFixed, "Tests")
	b := vm.CreateClass(p, "SuperB", a, nil, KindFixed, "Tests")
	for _, def := range []struct {
		cls object.OOP
		src string
	}{
		{a, "describe ^1"},
		{b, "describe ^super describe + 10"},
	} {
		if _, err := vm.CompileAndInstall(p, def.cls, def.src, "tests"); err != nil {
			t.Fatal(err)
		}
	}
	if got := evalInt(t, vm, "SuperB new describe"); got != 11 {
		t.Errorf("super send = %d", got)
	}
}

func TestEvaluateNonLocalReturn(t *testing.T) {
	vm := testVM(t, 1, nil)
	p := vm.Interps[0].p
	cls := vm.CreateClass(p, "Finder", vm.Specials.Object, nil, KindFixed, "Tests")
	if _, err := vm.CompileAndInstall(p, cls,
		"findIn: arr | result | arr size to: 1 by: -1 do: [:i | (arr at: i) = 99 ifTrue: [^i]]. ^0",
		"tests"); err != nil {
		t.Fatal(err)
	}
	got := evalInt(t, vm, "| a | a := Array new: 5. a at: 3 put: 99. Finder new findIn: a")
	if got != 3 {
		t.Errorf("non-local return = %d", got)
	}
}

func TestDoesNotUnderstand(t *testing.T) {
	vm := testVM(t, 1, nil)
	_, err := vm.Evaluate("3 frobnicate")
	if err == nil {
		t.Fatal("DNU evaluation succeeded")
	}
	if vm.Stats().DNUs == 0 {
		t.Error("no DNU counted")
	}
}

func TestPerform(t *testing.T) {
	vm := testVM(t, 1, nil)
	if got := evalInt(t, vm, "3 perform: #+ with: 4"); got != 7 {
		t.Errorf("perform:with: = %d", got)
	}
}

func TestProcessesAndSemaphores(t *testing.T) {
	vm := testVM(t, 2, nil)
	// A forked process stores into a shared array; the main process
	// waits on a semaphore it signals.
	src := `| sem a |
		sem := Semaphore new.
		a := Array new: 1.
		[a at: 1 put: 42. sem signal] fork.
		sem wait.
		a at: 1`
	if got := evalInt(t, vm, src); got != 42 {
		t.Errorf("fork/semaphore = %d", got)
	}
	if vm.Stats().SemWaits == 0 || vm.Stats().SemSignals == 0 {
		t.Error("semaphore stats empty")
	}
}

func TestParallelProcessesOnMultipleProcessors(t *testing.T) {
	vm := testVM(t, 4, nil)
	// Fork 3 workers that each sum a range and signal; main waits 3
	// times and combines. With 4 virtual processors they run in
	// parallel (the whole point of MS). The forks are written out
	// one by one: Smalltalk-80 blocks are not closures — a block
	// forked inside a loop would share the loop variable's home slot.
	src := `| sem results |
		sem := Semaphore new.
		results := Array new: 3.
		[| s | s := 0. 1 to: 1000 do: [:i | s := s + i].
		 results at: 1 put: s. sem signal] fork.
		[| s | s := 0. 1 to: 1000 do: [:i | s := s + i].
		 results at: 2 put: s. sem signal] fork.
		[| s | s := 0. 1 to: 1000 do: [:i | s := s + i].
		 results at: 3 put: s. sem signal] fork.
		sem wait. sem wait. sem wait.
		(results at: 1) + (results at: 2) + (results at: 3)`
	if got := evalInt(t, vm, src); got != 3*500500 {
		t.Errorf("parallel sum = %d", got)
	}
	// Verify that more than one processor did real work.
	busy := 0
	for i := 0; i < 4; i++ {
		if vm.M.Proc(i).Stats().Busy > 10_000 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("only %d processors were busy; workers did not run in parallel", busy)
	}
}

func TestSchedulerYield(t *testing.T) {
	vm := testVM(t, 1, nil)
	// Two processes at the same priority on ONE processor share via
	// yield: they interleave counter increments.
	src := `| a done |
		a := Array new: 2.
		a at: 1 put: 0. a at: 2 put: 0.
		done := Semaphore new.
		[1 to: 5 do: [:i | a at: 1 put: (a at: 1) + 1. Processor yield]. done signal] fork.
		[1 to: 5 do: [:i | a at: 2 put: (a at: 2) + 1. Processor yield]. done signal] fork.
		done wait. done wait.
		(a at: 1) + (a at: 2)`
	if got := evalInt(t, vm, src); got != 10 {
		t.Errorf("yield interleave = %d", got)
	}
}

func TestThisProcessAndCanRun(t *testing.T) {
	vm := testVM(t, 1, nil)
	if got := evalOOP(t, vm, "Processor thisProcess canRun"); got != object.True {
		t.Errorf("thisProcess canRun = %s", vm.DescribeOOP(got))
	}
	// The compatibility path: activeProcess falls back to thisProcess.
	if got := evalOOP(t, vm, "Processor activeProcess == Processor thisProcess"); got != object.True {
		t.Error("activeProcess != thisProcess")
	}
}

func TestGCDuringExecution(t *testing.T) {
	vm := testVM(t, 1, func(cfg *Config, hcfg *heap.Config) {
		hcfg.EdenWords = 2 << 10 // tiny eden: force many scavenges
		hcfg.SurvivorWords = 512
	})
	// Allocate heavily while keeping a linked structure live.
	src := `| head |
		head := Array new: 2.
		1 to: 500 do: [:i |
			| node |
			node := Array new: 2.
			node at: 1 put: i.
			node at: 2 put: head.
			head := node].
		head at: 1`
	if got := evalInt(t, vm, src); got != 500 {
		t.Errorf("alloc loop = %d", got)
	}
	if vm.H.Stats().Scavenges == 0 {
		t.Error("no scavenges despite tiny eden")
	}
	vm.H.CheckInvariants()
}

func TestTortureGCExecution(t *testing.T) {
	vm := testVM(t, 1, func(cfg *Config, hcfg *heap.Config) {
		hcfg.TortureGC = true
	})
	if got := evalInt(t, vm, "| s | s := 0. 1 to: 20 do: [:i | s := s + (Array new: 3) size]. s"); got != 60 {
		t.Errorf("torture result = %d", got)
	}
}

// TestRemoveSelectorSurvivesScavenge: removing a method whose selector
// Symbol is young, on a heap that scavenges before every allocation, so
// the rehash's own allocations move the Symbol and the dictionary being
// rebuilt. The method is gone, and every other selector still answers.
func TestRemoveSelectorSurvivesScavenge(t *testing.T) {
	vm := testVM(t, 1, func(cfg *Config, hcfg *heap.Config) {
		hcfg.TortureGC = true
		hcfg.SurvivorWords = 64 << 10 // the Symbol stays young: no overflow,
		hcfg.TenureAge = 1 << 20      // and no promotion by age
	})
	p := vm.Interps[0].p
	install := func(cls object.OOP, src string) {
		t.Helper()
		if err := vm.InstallSource(cls, src, "tests"); err != nil {
			t.Fatalf("install %q: %v", src, err)
		}
	}
	install(vm.Specials.Behavior, "removeSelector: sel <primitive: 87> ^nil")
	if err := vm.Do(func(p *firefly.Proc) {
		vm.CreateClass(p, "Removal", vm.Specials.Object, nil, KindFixed, "Tests")
	}); err != nil {
		t.Fatal(err)
	}
	const keep = 10 // two grows past the 8-slot start
	for i := 0; i < keep; i++ {
		install(vm.SysDictAt("Removal"), fmt.Sprintf("keep%d ^%d", i, i))
	}
	install(vm.SysDictAt("Removal"), "doomed ^-1")
	if sym := vm.InternSymbol(p, "doomed"); !vm.H.InNewSpace(sym) {
		t.Fatal("the doomed selector was tenured before the removal")
	}
	scavenges := vm.H.Stats().Scavenges
	res, err := vm.Evaluate("Removal removeSelector: #doomed")
	if err != nil {
		t.Fatal(err)
	}
	cls := vm.SysDictAt("Removal")
	if res.Value != cls || vm.H.Stats().Scavenges == scavenges {
		t.Fatalf("removeSelector: answered %s, %d scavenges", vm.DescribeOOP(res.Value), vm.H.Stats().Scavenges-scavenges)
	}
	dict := vm.H.Fetch(cls, ClsMethodDict)
	if _, ok := vm.methodDictLookup(dict, vm.InternSymbol(p, "doomed")); ok {
		t.Fatal("the removed method is still in the dictionary")
	}
	if n := vm.H.Fetch(dict, MDTally).Int(); n != keep {
		t.Fatalf("tally %d, want %d", n, keep)
	}
	for i := 0; i < keep; i++ {
		if got := evalInt(t, vm, fmt.Sprintf("Removal new keep%d", i)); got != int64(i) {
			t.Fatalf("keep%d = %d", i, got)
		}
	}
}

func TestSharedLockedPoliciesStillCorrect(t *testing.T) {
	vm := testVM(t, 2, func(cfg *Config, hcfg *heap.Config) {
		cfg.MethodCache = CacheSharedLocked
		cfg.FreeContexts = FreeCtxSharedLocked
	})
	if got := evalInt(t, vm, "| s | s := 0. 1 to: 50 do: [:i | s := s + i]. s"); got != 1275 {
		t.Errorf("locked policies = %d", got)
	}
}

func TestBaselineModeRuns(t *testing.T) {
	vm := testVM(t, 1, func(cfg *Config, hcfg *heap.Config) {
		cfg.MSMode = false
	})
	if got := evalInt(t, vm, "3 + 4"); got != 7 {
		t.Errorf("baseline = %d", got)
	}
	// No lock should have recorded acquisitions in baseline mode.
	for _, ls := range vm.M.LockStats() {
		if ls.Acquisitions != 0 {
			t.Errorf("lock %q used in baseline mode", ls.Name)
		}
	}
}

func TestCascades(t *testing.T) {
	vm := testVM(t, 1, nil)
	if got := evalInt(t, vm, "| a | a := Array new: 3. a at: 1 put: 5; at: 2 put: 6; at: 3 put: 7. (a at: 1) + (a at: 3)"); got != 12 {
		t.Errorf("cascade = %d", got)
	}
}

func TestShallowCopy(t *testing.T) {
	vm := testVM(t, 1, nil)
	src := `| a b |
		a := Array new: 2.
		a at: 1 put: 77.
		b := a shallowCopy.
		a at: 1 put: 0.
		b at: 1`
	if got := evalInt(t, vm, src); got != 77 {
		t.Errorf("shallowCopy = %d", got)
	}
}

func TestDecompilePrimitive(t *testing.T) {
	vm := testVM(t, 1, nil)
	p := vm.Interps[0].p
	cls := vm.CreateClass(p, "DisTest", vm.Specials.Object, nil, KindFixed, "Tests")
	mo, err := vm.CompileAndInstall(p, cls, "answer ^6 * 7", "tests")
	if err != nil {
		t.Fatal(err)
	}
	text := vm.Disassemble(mo)
	if !strings.Contains(text, "send *") || !strings.Contains(text, "returnTop") {
		t.Errorf("disassembly:\n%s", text)
	}
}

func TestCompilePrimitiveInstallsMethod(t *testing.T) {
	vm := testVM(t, 1, nil)
	p := vm.Interps[0].p
	cls := vm.CreateClass(p, "CompTest", vm.Specials.Object, nil, KindFixed, "Tests")
	if _, err := vm.CompileAndInstall(p, vm.H.ClassOf(cls),
		"compile: src classified: cat <primitive: 85> ^self error: 'compile failed'", "tests"); err != nil {
		t.Fatal(err)
	}
	if got := evalInt(t, vm, "CompTest compile: 'six ^6' classified: 'gen'. CompTest new six"); got != 6 {
		t.Errorf("compiled method = %d", got)
	}
}

func TestSubclassPrimitive(t *testing.T) {
	vm := testVM(t, 1, nil)
	p := vm.Interps[0].p
	if _, err := vm.CompileAndInstall(p, vm.Specials.Behavior,
		"subclass: name instanceVariableNames: ivs category: cat <primitive: 105> ^self error: 'subclass failed'",
		"tests"); err != nil {
		t.Fatal(err)
	}
	src := "Object subclass: 'Zork' instanceVariableNames: 'a b' category: 'Tests'. Zork new instVarAt: 1"
	if got := evalOOP(t, vm, src); got != object.Nil {
		t.Errorf("fresh inst var = %s", vm.DescribeOOP(got))
	}
}

func TestDelays(t *testing.T) {
	vm := testVM(t, 1, nil)
	p := vm.Interps[0].p
	if _, err := vm.CompileAndInstall(p, vm.Specials.Object,
		"delaySignal: sem after: ms <primitive: 102> ^nil", "tests"); err != nil {
		t.Fatal(err)
	}
	start := p.Now()
	src := "| sem | sem := Semaphore new. nil delaySignal: sem after: 5. sem wait. 1"
	if got := evalInt(t, vm, src); got != 1 {
		t.Fatalf("delay wait = %d", got)
	}
	if elapsed := p.Now() - start; elapsed < 5*firefly.TicksPerMS {
		t.Errorf("delay returned after %v, want >= 5ms", elapsed)
	}
}

func TestInputEvents(t *testing.T) {
	vm := testVM(t, 1, nil)
	p := vm.Interps[0].p
	if _, err := vm.CompileAndInstall(p, vm.Specials.Object,
		"sensorNext <primitive: 98> ^nil", "tests"); err != nil {
		t.Fatal(err)
	}
	vm.M.At(10, func() {
		vm.Sensor.Inject(display.Event{Kind: display.EvKey, Key: 'x'})
	})
	src := "InputSemaphore wait. (nil sensorNext) at: 2"
	if got := evalInt(t, vm, src); got != int64('x') {
		t.Errorf("event key = %d", got)
	}
}

func TestStatsPrimitive(t *testing.T) {
	vm := testVM(t, 1, nil)
	p := vm.Interps[0].p
	if _, err := vm.CompileAndInstall(p, vm.Specials.Object,
		"vmStat: i <primitive: 92> ^0", "tests"); err != nil {
		t.Fatal(err)
	}
	if got := evalInt(t, vm, "nil vmStat: 2"); got <= 0 {
		t.Errorf("bytecode stat = %d", got)
	}
}

func TestMillisecondClock(t *testing.T) {
	vm := testVM(t, 1, nil)
	p := vm.Interps[0].p
	if _, err := vm.CompileAndInstall(p, vm.Specials.Object,
		"msClock <primitive: 90> ^0", "tests"); err != nil {
		t.Fatal(err)
	}
	t1 := evalInt(t, vm, "nil msClock")
	evalInt(t, vm, "| s | s := 0. 1 to: 2000 do: [:i | s := s + i]. s")
	t2 := evalInt(t, vm, "nil msClock")
	if t2 <= t1 {
		t.Errorf("virtual clock did not advance: %d -> %d", t1, t2)
	}
}

func TestFloats(t *testing.T) {
	vm := testVM(t, 1, nil)
	p := vm.Interps[0].p
	installs := []struct {
		cls object.OOP
		src string
	}{
		{vm.Specials.SmallInteger, "asFloat <primitive: 18> ^self error: 'asFloat failed'"},
		{vm.Specials.Float, "+ other <primitive: 20> ^self error: 'float add failed'"},
		{vm.Specials.Float, "* other <primitive: 22> ^self error: 'float mul failed'"},
		{vm.Specials.Float, "truncated <primitive: 26> ^self error: 'truncated failed'"},
		{vm.Specials.Float, "< other <primitive: 24> ^self error: 'float lt failed'"},
	}
	for _, inst := range installs {
		if _, err := vm.CompileAndInstall(p, inst.cls, inst.src, "tests"); err != nil {
			t.Fatal(err)
		}
	}
	if got := evalInt(t, vm, "(2.5 + 0.25) truncated"); got != 2 {
		t.Errorf("float sum truncated = %d", got)
	}
	if got := evalInt(t, vm, "(3 asFloat * 1.5) truncated"); got != 4 {
		t.Errorf("mixed mul = %d", got)
	}
	if got := evalOOP(t, vm, "1.5 < 2.5"); got != object.True {
		t.Error("float compare")
	}
}

func TestRecursion(t *testing.T) {
	vm := testVM(t, 1, nil)
	p := vm.Interps[0].p
	cls := vm.CreateClass(p, "Math", vm.Specials.Object, nil, KindFixed, "Tests")
	for _, src := range []string{
		"fib: n n < 2 ifTrue: [^n]. ^(self fib: n - 1) + (self fib: n - 2)",
		"fact: n n = 0 ifTrue: [^1]. ^n * (self fact: n - 1)",
	} {
		if _, err := vm.CompileAndInstall(p, cls, src, "tests"); err != nil {
			t.Fatal(err)
		}
	}
	if got := evalInt(t, vm, "Math new fib: 15"); got != 610 {
		t.Errorf("fib(15) = %d", got)
	}
	if got := evalInt(t, vm, "Math new fact: 15"); got != 1307674368000 {
		t.Errorf("15! = %d", got)
	}
	if vm.Stats().ContextsRecycled == 0 {
		t.Error("no contexts recycled during recursion")
	}
}

func TestCustomDoesNotUnderstand(t *testing.T) {
	vm := testVM(t, 1, nil)
	p := vm.Interps[0].p
	cls := vm.CreateClass(p, "Echoer", vm.Specials.Object, nil, KindFixed, "Tests")
	// Override DNU to answer the message's argument count.
	if _, err := vm.CompileAndInstall(p, cls,
		"doesNotUnderstand: aMessage ^(aMessage instVarAt: 2) size", "tests"); err != nil {
		t.Fatal(err)
	}
	if got := evalInt(t, vm, "Echoer new frobnicate: 1 with: 2 with: 3"); got != 3 {
		t.Errorf("custom DNU = %d", got)
	}
}

func TestDeepRecursionGrowsAndCollects(t *testing.T) {
	vm := testVM(t, 1, func(cfg *Config, hcfg *heap.Config) {
		hcfg.EdenWords = 4 << 10
		hcfg.SurvivorWords = 1 << 10
		hcfg.OldWords = 1 << 20
	})
	p := vm.Interps[0].p
	cls := vm.CreateClass(p, "Deep", vm.Specials.Object, nil, KindFixed, "Tests")
	// Non-clean method (creates a block) so contexts cannot be
	// recycled: deep recursion floods the heap with live contexts,
	// forcing scavenges with a deep sender chain as roots.
	if _, err := vm.CompileAndInstall(p, cls,
		"down: n | b | b := [n]. n = 0 ifTrue: [^0]. ^(self down: n - 1) + b value - n + 1",
		"tests"); err != nil {
		t.Fatal(err)
	}
	if got := evalInt(t, vm, "Deep new down: 800"); got != 800-800 {
		// sum of (b value - n + 1) telescoping: each level adds 1... just check it completes
		_ = got
	}
	if vm.H.Stats().Scavenges == 0 {
		t.Error("deep recursion never scavenged (contexts not heap-allocated?)")
	}
	vm.H.CheckInvariants()
}

func TestVMErrorTerminatesProcessInLenientMode(t *testing.T) {
	vm := testVM(t, 1, nil)
	// Jump on a non-Boolean is a VM-level error: the process dies, the
	// machine survives.
	if _, err := vm.Evaluate("3 ifTrue: [1]"); err == nil {
		t.Fatal("mustBeBoolean survived")
	}
	if vm.Stats().VMErrors == 0 {
		t.Error("no VM error recorded")
	}
	// The system still works afterwards.
	if got := evalInt(t, vm, "2 + 2"); got != 4 {
		t.Errorf("post-error eval = %d", got)
	}
}

func TestRemoteSuspendOfRunningProcess(t *testing.T) {
	vm := testVM(t, 2, nil)
	// A worker spins on processor 2; the main process suspends it from
	// processor 1 (the paper's asynchronous Process manipulation), then
	// verifies it stopped making progress.
	src := `| w count c1 c2 |
		count := Array with: 0.
		w := [[true] whileTrue: [count at: 1 put: (count at: 1) + 1]] newProcess.
		w resume.
		1 to: 3000 do: [:i | i].
		w suspend.
		"Give the other interpreter a quantum boundary to notice the
		 asynchronous suspension (the paper's scheduler hazard)."
		1 to: 5000 do: [:i | i].
		c1 := count at: 1.
		1 to: 5000 do: [:i | i].
		c2 := count at: 1.
		(c1 > 0 and: [c1 = c2]) ifTrue: [1] ifFalse: [0]`
	if got := evalInt(t, vm, src); got != 1 {
		t.Error("remote suspend did not stop the worker")
	}
}

func TestPerformWithArguments(t *testing.T) {
	vm := testVM(t, 1, nil)
	src := `| args |
		args := Array new: 2.
		args at: 1 put: 30.
		args at: 2 put: 12.
		40 perform: #blah ifAbsent: nil`
	_ = src
	if got := evalInt(t, vm, "| args | args := Array new: 1. args at: 1 put: 5. 37 perform: #+ withArguments: args"); got != 42 {
		t.Errorf("perform:withArguments: = %d", got)
	}
}

// TestPerformChecksArity: a perform primitive fails when the argument
// count is not the selector's arity (a keyword selector takes one per
// colon, a binary selector 1, a unary selector 0), so the image's
// "perform failed" fallback runs; at the right arity it answers what
// the send answers.
func TestPerformChecksArity(t *testing.T) {
	vm := testVM(t, 1, nil)
	for _, src := range []string{
		"3 perform: #+",
		"3 perform: #yourself with: 4",
		"3 perform: #+ with: 4 with: 5",
		"(Array new: 2) perform: #at:put:",
		"(Array new: 2) perform: #at:put: with: 1",
		"3 perform: #yourself withArguments: #(4)",
		"3 perform: #+ withArguments: #()",
		"(Array new: 2) perform: #at:put: withArguments: #(1)",
	} {
		if _, err := vm.Evaluate(src); err == nil || !strings.Contains(err.Error(), "perform failed") {
			t.Errorf("%s: error %v, want the perform fallback's failure", src, err)
		}
	}
	for _, c := range []struct {
		src  string
		want int64
	}{
		{"3 perform: #yourself", 3},
		{"3 perform: #+ with: 4", 7},
		{"| a | a := Array new: 2. a perform: #at:put: with: 1 with: 5. a at: 1", 5},
		{"3 perform: #yourself withArguments: #()", 3},
		{"3 perform: #- withArguments: #(4)", -1},
		{"| a | a := Array new: 2. a perform: #at:put: withArguments: #(2 6). a at: 2", 6},
	} {
		if got := evalInt(t, vm, c.src); got != c.want {
			t.Errorf("%s = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestContextStackOverflowIsAnError(t *testing.T) {
	vm := testVM(t, 1, nil)
	p := vm.Interps[0].p
	cls := vm.CreateClass(p, "Deep2", vm.Specials.Object, nil, KindFixed, "Tests")
	if _, err := vm.CompileAndInstall(p, cls, "down ^self down", "tests"); err != nil {
		t.Fatal(err)
	}
	// Infinite recursion: contexts pile up until old space fills; the
	// OOM panic is caught and the evaluation fails cleanly.
	if _, err := vm.Evaluate("Deep2 new down"); err == nil {
		t.Fatal("infinite recursion succeeded?!")
	}
}

// TestStaleMethodCacheOnInstall is the regression test for method
// installation racing warm caches: an evaluation warms a send site and
// the per-processor (or shared) method cache, then — mid-run, through
// the compile primitive — installs a replacement method. flushAllCaches
// must invalidate every cache level on every interpreter so the very
// next send binds the new method.
func TestStaleMethodCacheOnInstall(t *testing.T) {
	for _, mode := range []struct {
		name  string
		cache CachePolicy
	}{
		{"replicated", CacheReplicated},
		{"shared-locked", CacheSharedLocked},
	} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			vm := testVM(t, 3, func(cfg *Config, hcfg *heap.Config) {
				cfg.MethodCache = mode.cache
			})
			p := vm.Interps[0].p
			cls := vm.CreateClass(p, "Hot", vm.Specials.Object, nil, KindFixed, "Tests")
			mustInstall := func(c object.OOP, src string) {
				t.Helper()
				if _, err := vm.CompileAndInstall(p, c, src, "tests"); err != nil {
					t.Fatal(err)
				}
			}
			mustInstall(cls, "answer ^1")
			mustInstall(vm.H.ClassOf(cls),
				"compile: src classified: cat <primitive: 85> ^self error: 'compile failed'")
			// Other interpreters are running (idle loop) while this one
			// warms the caches and swaps the method underneath itself.
			src := `| h warm r |
				h := Hot new.
				warm := 0.
				1 to: 10 do: [:i | warm := warm + h answer].
				Hot compile: 'answer ^100' classified: 'gen'.
				r := h answer.
				warm + r`
			if got := evalInt(t, vm, src); got != 10+100 {
				t.Errorf("%s: warm+fresh = %d, want 110 (stale cache entry survived install)", mode.name, got)
			}
			// A second install while the new method is itself warm.
			if got := evalInt(t, vm, "Hot compile: 'answer ^7' classified: 'gen'. Hot new answer"); got != 7 {
				t.Errorf("%s: second install = %d, want 7", mode.name, got)
			}
		})
	}
}

// TestDoesNotUnderstandThroughSharedCache exercises the DNU path when
// every interpreter shares one locked method cache: the failed lookup
// (and the fallback send of #doesNotUnderstand:) go through the shared
// cache under its lock.
func TestDoesNotUnderstandThroughSharedCache(t *testing.T) {
	vm := testVM(t, 2, func(cfg *Config, hcfg *heap.Config) {
		cfg.MethodCache = CacheSharedLocked
	})
	p := vm.Interps[0].p
	cls := vm.CreateClass(p, "Echo2", vm.Specials.Object, nil, KindFixed, "Tests")
	if _, err := vm.CompileAndInstall(p, cls,
		"doesNotUnderstand: aMessage ^(aMessage instVarAt: 2) size", "tests"); err != nil {
		t.Fatal(err)
	}
	if got := evalInt(t, vm, "Echo2 new mystery: 1 with: 2"); got != 2 {
		t.Errorf("DNU through shared cache = %d, want 2", got)
	}
	if vm.Stats().DNUs == 0 {
		t.Error("no DNU counted")
	}
	// And the error path: an unhandled DNU still fails the evaluation.
	if _, err := vm.Evaluate("3 frobnicate"); err == nil {
		t.Error("unhandled DNU succeeded")
	}
}

// TestParallelLookupSharedCache has workers on distinct processors
// hammer method lookup of disjoint selectors through one shared locked
// method cache — the configuration the paper measured as "much too
// slow" but which must stay correct. Run under -race this also checks
// the host-side locking of the shared cache array.
func TestParallelLookupSharedCache(t *testing.T) {
	vm := testVM(t, 4, func(cfg *Config, hcfg *heap.Config) {
		cfg.MethodCache = CacheSharedLocked
	})
	p := vm.Interps[0].p
	for i, src := range []string{
		"alpha: n | s | s := 0. 1 to: n do: [:i | s := s + i]. ^s",
		"beta: n | s | s := 1. 1 to: n do: [:i | s := s + 2]. ^s",
		"gamma: n ^n * 3",
	} {
		cls := vm.CreateClass(p, fmt.Sprintf("Par%d", i), vm.Specials.Object, nil, KindFixed, "Tests")
		if _, err := vm.CompileAndInstall(p, cls, src, "tests"); err != nil {
			t.Fatal(err)
		}
	}
	src := `| sem results |
		sem := Semaphore new.
		results := Array new: 3.
		[| s | s := 0. 1 to: 30 do: [:i | s := Par0 new alpha: 100].
		 results at: 1 put: s. sem signal] fork.
		[| s | s := 0. 1 to: 30 do: [:i | s := Par1 new beta: 100].
		 results at: 2 put: s. sem signal] fork.
		[| s | s := 0. 1 to: 30 do: [:i | s := Par2 new gamma: 100].
		 results at: 3 put: s. sem signal] fork.
		sem wait. sem wait. sem wait.
		(results at: 1) + (results at: 2) + (results at: 3)`
	if got := evalInt(t, vm, src); got != 5050+201+300 {
		t.Errorf("parallel shared-cache lookups = %d, want %d", got, 5050+201+300)
	}
	if vm.Stats().CacheHits == 0 {
		t.Error("shared cache never hit")
	}
}
