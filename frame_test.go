package mst_test

import (
	"testing"

	"mst/internal/core"
	"mst/internal/interp"
)

// The interpreter's register window (heap.Frame) is a direct view of the
// active context's slots, valid until the context moves or is tenured.
// These tests aim at the one thing that can go wrong with it: a view that
// is stale, or granted where the accessors' barriers were needed.

// frameStormSource: a deep non-tail recursion whose every return pushes a
// young Array onto a caller context that has long since been tenured,
// and a doubly nested inject:into: whose blocks keep writing their home
// contexts' temps.
const frameStormSource = `Object subclass: #FrameStorm
	instanceVariableNames: ''
	category: 'T'!

!FrameStorm methodsFor: 't'!
nest: n
	^n = 0 ifTrue: [Array new: 1] ifFalse: [Array with: (self nest: n - 1)]!
depthOf: a
	| d x |
	d := 0.
	x := a.
	[(x at: 1) isNil] whileFalse: [d := d + 1. x := x at: 1].
	^d!
blocks: n
	^(1 to: n) inject: 0 into: [:a :b | a + ((1 to: 7) inject: b into: [:x :y | x + y])]! !
`

// frameStormPrograms are the benchmark's nine canaries (benchmark/check.go)
// plus the two storm programs.
var frameStormPrograms = []string{
	"(1 to: 100) inject: 0 into: [:a :b | a + b]",
	"(1 to: 10) inject: 1 into: [:a :b | a * b]",
	"((1 to: 20) collect: [:i | i * i]) inject: 0 into: [:a :b | a + b]",
	"'hello world' reversed",
	"(1 to: 50) inject: 0 into: [:a :b | a + (b * b * b)]",
	"| a | a := Array new: 10. 1 to: 10 do: [:i | a at: i put: i * 3]. a inject: 0 into: [:x :y | x + y]",
	"((1 to: 30) select: [:i | i \\\\ 3 = 0]) size",
	"| d | d := Dictionary new. 1 to: 20 do: [:i | d at: i put: i * i]. (d at: 12) + d size",
	"| s | s := WriteStream on: (String new: 8). 1 to: 5 do: [:i | i printOn: s]. s contents",
	"| f | f := FrameStorm new. f depthOf: (f nest: 1500)",
	"FrameStorm new blocks: 400",
}

// TestFrameRebindUnderScavengeStorm runs the programs on a heap whose
// eden holds a few dozen contexts and whose survivors are tenured at
// their second scavenge, so the active context and the block homes move
// and are tenured mid-activation many times a request — for both engines,
// both free-context policies, and the fused tier over inline caches. The
// free lists are emptied at every scavenge, so activateMethod's
// allocating fallback and its mid-activation GC (the plan is re-fetched
// after it) run constantly.
// The answers must equal the default geometry's, the sanitizer's
// write-barrier verifier (run after every scavenge) must stay clean, and
// the recursion must have taken store checks: a young value pushed on a
// tenured context goes through the checked Store, not the view.
func TestFrameRebindUnderScavengeStorm(t *testing.T) {
	for _, row := range []struct {
		name string
		set  func(*core.Config)
	}{
		{"interp", func(*core.Config) {}},
		{"jit", func(c *core.Config) { c.JIT = true }},
		{"shared-locked free contexts", func(c *core.Config) { c.FreeContexts = interp.FreeCtxSharedLocked }},
		{"jit+pic", func(c *core.Config) { c.JIT, c.InlineCache = true, interp.ICPoly }},
	} {
		run := func(storm bool) (answers []string, checks, scavenges uint64) {
			cfg := core.BaselineConfig()
			row.set(&cfg)
			if storm {
				cfg.EdenWords, cfg.SurvivorWords, cfg.OldWords, cfg.TenureAge = 1024, 512, 4<<20, 1
				cfg.Sanitize = true
			}
			sys, err := core.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Shutdown()
			if err := sys.FileIn("storm.st", frameStormSource); err != nil {
				t.Fatal(err)
			}
			before := sys.Stats().Heap
			for _, src := range frameStormPrograms {
				out, err := sys.Evaluate(src)
				if err != nil {
					t.Fatalf("%s storm=%v %q: %v", row.name, storm, src, err)
				}
				answers = append(answers, out)
			}
			if san := sys.Sanitizer(); storm && !san.Clean() {
				t.Errorf("%s: sanitizer found violations under the storm:\n%s", row.name, san.Report())
			}
			after := sys.Stats().Heap
			return answers, after.StoreChecks - before.StoreChecks, after.Scavenges - before.Scavenges
		}
		want, _, _ := run(false)
		got, checks, scavenges := run(true)
		for i, src := range frameStormPrograms {
			if got[i] != want[i] {
				t.Errorf("%s %q: answered %s under the storm, %s on the default heap", row.name, src, got[i], want[i])
			}
		}
		if want[9] != "1500" {
			t.Errorf("%s: recursion answered %s, want 1500", row.name, want[9])
		}
		if scavenges < 50 || checks < 1000 {
			t.Errorf("%s: storm too mild to prove anything: %d scavenges, %d store checks", row.name, scavenges, checks)
		}
	}
}

// TestFrameIsAViewOfTheReifiedContext: a method reifies thisContext and
// reads and writes its own slots through basicAt: — the primitive goes
// through Heap.Fetch and Heap.Store on the context's oop, the temps and
// the operand stack through the register window — and both must be
// looking at the same words, in either direction, with no write-back
// step between them.
func TestFrameIsAViewOfTheReifiedContext(t *testing.T) {
	sys, err := core.NewSystem(core.BaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	// A context's indexed fields are its slot area: argument x is
	// basicAt: 1, temps a and b are 2 and 3, the operand stack follows.
	src := `Object subclass: #CtxView
	instanceVariableNames: ''
	category: 'T'!

!CtxView methodsFor: 't'!
read: x
	| a b |
	a := x * 2.
	b := a + 1.
	^((thisContext basicAt: 1) * 10000) + ((thisContext basicAt: 2) * 100) + (thisContext basicAt: 3)!
write: x
	| a b |
	a := x.
	thisContext basicAt: 2 put: 77; basicAt: 3 put: a + 1.
	^a * 100 + b!
stack
	^3 + (thisContext basicAt: 1)! !
`
	if err := sys.FileIn("ctxview.st", src); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		src  string
		want int64
	}{
		{"CtxView new read: 4", 4*10000 + 8*100 + 9},
		// The cascade's second argument reads a after the first store.
		{"CtxView new write: 5", 77*100 + 78},
		// The pending operand 3 is slot 0 of a method with no temps.
		{"CtxView new stack", 6},
	} {
		if got, err := sys.EvaluateInt(tc.src); err != nil || got != tc.want {
			t.Errorf("%s = %d, %v; want %d", tc.src, got, err, tc.want)
		}
	}
}
