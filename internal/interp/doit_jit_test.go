package interp_test

import (
	"testing"

	"mst/internal/bench"
	"mst/internal/core"
	"mst/internal/interp"
	"mst/internal/trace"
)

const doItProbeSource = `
Object subclass: #DoItProbe
	instanceVariableNames: ''
	category: 'Tests'!

!DoItProbe methodsFor: 'tests'!
twice: x
	^x + x! !
`

// TestDoItIsNeverCompiled: a doIt whose own plan is loaded far past
// jit.CompileThreshold — an inlined loop, a block evaluated twice, two
// returns from a method — runs in the switch, while the method it sends
// twice compiles at its threshold. Against a twin with the tier off,
// only the tier's own counters differ.
func TestDoItIsNeverCompiled(t *testing.T) {
	boot := func(jit bool) *core.System {
		t.Helper()
		cfg := core.BaselineConfig()
		cfg.InlineCache = interp.ICPoly
		cfg.JIT = jit
		cfg.TraceEvents = 1 << 12
		cfg.ExtraSources = []string{doItProbeSource}
		sys, err := core.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sys.Shutdown)
		return sys
	}
	on, off := boot(true), boot(false)

	for _, c := range []struct {
		src      string
		want     int64
		compiles uint64 // with the tier on
	}{
		{`| s b p |
			s := 0. p := DoItProbe new.
			1 to: 1000 do: [:i | s := s + i].
			b := [:x | x * 3].
			s + (b value: 1) + (b value: 2) + (p twice: 4) + (p twice: 5)`,
			500500 + 3 + 6 + 8 + 10, 1},
		// A decompiler attach restarts the hotness of the method it
		// decompiles but keeps its pin: a doIt decompiling itself, then
		// loaded four more times, still never compiles.
		{`| b | thisContext method decompileString.
			b := [:x | x]. (b value: 1) + (b value: 2)`, 3, 0},
	} {
		before := on.Stats().Interp.JITCompiles
		for _, sys := range []*core.System{on, off} {
			if got, err := sys.EvaluateInt(c.src); err != nil || got != c.want {
				t.Fatalf("JIT %v: %q answered %d, %v; want %d", sys.Cfg.JIT, c.src, got, err, c.want)
			}
		}
		if n := on.Stats().Interp.JITCompiles - before; n != c.compiles {
			t.Errorf("%q compiled %d methods, want %d", c.src, n, c.compiles)
		}
	}
	var last string
	for _, ev := range on.VM.M.Recorder().Events() {
		if ev.Kind == trace.KJITCompile {
			last = ev.Str
		}
	}
	if last != "twice:" {
		t.Errorf("last method compiled is %q, want twice:", last)
	}

	if a, b := on.VirtualTime(), off.VirtualTime(); a != b {
		t.Errorf("virtual time %d with the tier on, %d off", a, b)
	}
	sa, sb := on.Stats(), off.Stats()
	if sa.Heap != sb.Heap {
		t.Errorf("heap counters differ:\n%+v\n%+v", sa.Heap, sb.Heap)
	}
	ia, ib := sa.Interp, sb.Interp
	ia.JITCompiles, ia.JITDeopts, ia.JITBytecodes = 0, 0, 0
	ib.JITCompiles, ib.JITDeopts, ib.JITBytecodes = 0, 0, 0
	if ia != ib {
		t.Errorf("interpreter counters differ beyond the tier's:\n%+v\n%+v", ia, ib)
	}
}

// macroFastCanaries are the canary doIts of the host-cost benchmark
// (benchmark/check.go) with their printStrings: the requests its macro_*
// workloads time between passes. allocs is a warm request's Go
// allocations on the macro_fast system, as measured; with the doIt fused
// per request they were 50, 47, 63, 26, 72, 177, 60, 178 and 145.
var macroFastCanaries = []struct {
	source, want string
	allocs       float64
}{
	{"(1 to: 100) inject: 0 into: [:a :b | a + b]", "5050", 21},
	{"(1 to: 10) inject: 1 into: [:a :b | a * b]", "3628800", 18},
	{"((1 to: 20) collect: [:i | i * i]) inject: 0 into: [:a :b | a + b]", "2870", 19},
	{"'hello world' reversed", "'dlrow olleh'", 17},
	{"(1 to: 50) inject: 0 into: [:a :b | a + (b * b * b)]", "1625625", 18},
	{"| a | a := Array new: 10. 1 to: 10 do: [:i | a at: i put: i * 3]. a inject: 0 into: [:x :y | x + y]", "165", 21},
	{"((1 to: 30) select: [:i | i \\\\ 3 = 0]) size", "10", 20},
	{"| d | d := Dictionary new. 1 to: 20 do: [:i | d at: i put: i * i]. (d at: 12) + d size", "164", 22},
	{"| s | s := WriteStream on: (String new: 8). 1 to: 5 do: [:i | i printOn: s]. s contents", "'12345'", 22},
}

// TestMacroFastCanaryHostCost pins a warm canary request on the
// macro_fast system (baseline BS with msjit, polymorphic inline caches
// and the 2-way method cache): it compiles nothing, and its Go
// allocations stay at their measured counts or lower.
func TestMacroFastCanaryHostCost(t *testing.T) {
	sys, err := bench.NewBenchSystem(bench.State{Name: "fast", Config: func() core.Config {
		c := core.BaselineConfig()
		c.JIT = true
		c.InlineCache = interp.ICPoly
		c.CacheWays = 2
		return c
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Shutdown)
	evaluate := func(source, want string) {
		if got, err := sys.Evaluate(source); err != nil || got != want {
			t.Fatalf("%q: answered %s, %v; want %s", source, got, err, want)
		}
	}
	// Warm: a method loaded once per request gets hot only across two
	// requests with no scavenge between them (a scavenge drops the plans
	// and their counts), which takes this set three rounds.
	for r := 0; r < 5; r++ {
		for _, c := range macroFastCanaries {
			evaluate(c.source, c.want)
		}
	}
	for _, c := range macroFastCanaries {
		before := sys.Stats().Interp.JITCompiles
		got := testing.AllocsPerRun(100, func() { evaluate(c.source, c.want) })
		if n := sys.Stats().Interp.JITCompiles - before; n != 0 {
			t.Errorf("%q: %d template compiles in 101 warm requests, want 0", c.source, n)
		}
		if got > c.allocs {
			t.Errorf("%q: %.0f Go allocations per request, measured %.0f", c.source, got, c.allocs)
		}
	}
}
