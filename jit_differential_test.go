package mst_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"mst/internal/bench"
	"mst/internal/core"
	"mst/internal/interp"
	"mst/internal/trace"
)

// Differential tests for the msjit template tier: the tier's contract
// is that turning it on changes host time and nothing else. Every test
// here runs the same workload with the tier off and on and compares
// virtual results — bit-for-bit in deterministic mode, answer-for-
// answer in parallel mode — then injects each deoptimization cause and
// checks the tier falls back cleanly.

// neutralJIT zeroes the tier's own three counters, the only Stats
// fields allowed to differ between an interpreted and a compiled run.
func neutralJIT(st core.Stats) core.Stats {
	st.Interp.JITCompiles = 0
	st.Interp.JITDeopts = 0
	st.Interp.JITBytecodes = 0
	return st
}

// withJIT wraps a config constructor, forcing the tier on or off.
func withJIT(config func() core.Config, jit bool) func() core.Config {
	return func() core.Config {
		cfg := config()
		cfg.JIT = jit
		return cfg
	}
}

// TestJITDifferentialTable2 sweeps every Table 2 macro benchmark under
// the production MS config, under MS+ (the tier's designed home, with
// inline caches), and under the uniprocessor baseline with inline caches
// (the configuration the benchmark's macro_fast workload times),
// interpreter versus template tier, and demands bit-identical virtual
// times and a bit-identical Stats snapshot.
func TestJITDifferentialTable2(t *testing.T) {
	configs := []struct {
		name   string
		config func() core.Config
	}{
		{"ms", core.DefaultConfig},
		{"ms-plus", core.MSPlusConfig},
		{"baseline-fast", func() core.Config {
			c := core.BaselineConfig()
			c.InlineCache = interp.ICPoly
			c.CacheWays = 2
			return c
		}},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			run := func(jit bool) (map[string]int64, core.Stats) {
				sys, err := bench.NewBenchSystem(bench.State{
					Name:   cfg.name,
					Config: withJIT(cfg.config, jit),
				})
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Shutdown()
				vms := map[string]int64{}
				for _, mb := range bench.MacroBenchmarks {
					ms, err := bench.RunMacro(sys, mb.Selector)
					if err != nil {
						t.Fatalf("%s (jit=%v): %v", mb.Selector, jit, err)
					}
					vms[mb.Selector] = ms
				}
				return vms, sys.Stats()
			}
			offVMS, offStats := run(false)
			onVMS, onStats := run(true)
			for _, mb := range bench.MacroBenchmarks {
				if offVMS[mb.Selector] != onVMS[mb.Selector] {
					t.Errorf("%s: virtual time diverges — interpreted %d ms, compiled %d ms",
						mb.Selector, offVMS[mb.Selector], onVMS[mb.Selector])
				}
			}
			if onStats.Interp.JITCompiles == 0 || onStats.Interp.JITBytecodes == 0 {
				t.Errorf("tier never ran (compiles=%d bytecodes=%d)",
					onStats.Interp.JITCompiles, onStats.Interp.JITBytecodes)
			}
			if offStats.Interp.JITCompiles != 0 || offStats.Interp.JITBytecodes != 0 {
				t.Errorf("interpreted control ran jit machinery (compiles=%d bytecodes=%d)",
					offStats.Interp.JITCompiles, offStats.Interp.JITBytecodes)
			}
			if off, on := neutralJIT(offStats), neutralJIT(onStats); !reflect.DeepEqual(off, on) {
				t.Errorf("stats diverge beyond the tier's own counters:\noff: %+v\non:  %+v", off, on)
			}
		})
	}
}

// primeCounterSource is the examples/parallel workload class.
const primeCounterSource = `Object subclass: #PrimeCounter
	instanceVariableNames: ''
	category: 'Demo'!

!PrimeCounter class methodsFor: 'counting'!
countFrom: start to: stop
	| n |
	n := 0.
	start to: stop do: [:i | i isPrime ifTrue: [n := n + 1]].
	^n! !
`

// jitExampleCorpus mirrors the examples/ programs as deterministic
// expressions: quickstart arithmetic and image queries, the browser's
// metaobject walks, the pipeline's Process/Semaphore plumbing, and the
// parallel example's fork/join — everything a user program does.
var jitExampleCorpus = []string{
	// examples/quickstart
	"3 + 4 * 2",
	"(1 to: 100) inject: 0 into: [:sum :each | sum + each]",
	"'multiprocessor smalltalk' asUppercase",
	"((1 to: 20) select: [:n | n isPrime]) size",
	"Smalltalk allClasses size",
	// examples/browser
	"Collection printHierarchy size",
	"(Smalltalk allImplementorsOf: #printOn:) size",
	"(Smalltalk allCallsOn: #subclassResponsibility) size",
	"(Semaphore compiledMethodAt: #critical:) decompileString size",
	// examples/pipeline: three Processes over SharedQueues.
	`| gen sq done result |
	gen := SharedQueue new.
	sq := SharedQueue new.
	done := Semaphore new.
	result := Array with: 0 with: 0.
	[[true] whileTrue: [
		| v |
		v := gen next.
		v isNil ifTrue: [sq nextPut: nil. done signal. ^nil].
		sq nextPut: v * v]] fork.
	[[true] whileTrue: [
		| v |
		v := sq next.
		v isNil ifTrue: [done signal. ^nil].
		v even ifTrue: [
			result at: 1 put: (result at: 1) + v.
			result at: 2 put: (result at: 2) + 1]]] fork.
	1 to: 50 do: [:i | gen nextPut: i].
	gen nextPut: nil.
	done wait. done wait.
	(result at: 1) + (result at: 2)`,
	// examples/parallel: four forked workers joined by a semaphore.
	jitParallelProgram,
}

// jitParallelProgram is the examples/parallel fork/join workload,
// returning only the schedule-independent answer (no elapsed time).
const jitParallelProgram = `| done results |
	done := Semaphore new.
	results := Array new: 4.
	[results at: 1 put: (PrimeCounter countFrom: 1 to: 2000). done signal] fork.
	[results at: 2 put: (PrimeCounter countFrom: 2001 to: 4000). done signal] fork.
	[results at: 3 put: (PrimeCounter countFrom: 4001 to: 6000). done signal] fork.
	[results at: 4 put: (PrimeCounter countFrom: 6001 to: 8000). done signal] fork.
	done wait. done wait. done wait. done wait.
	(results at: 1) + (results at: 2) + (results at: 3) + (results at: 4)`

// TestJITDifferentialExamples runs the examples corpus on one
// interpreted and one compiled system, in order, comparing every
// answer, the final virtual clock, and the full Stats snapshot.
func TestJITDifferentialExamples(t *testing.T) {
	type outcome struct {
		answers []string
		vt      core.Stats
		clock   int64
	}
	run := func(jit bool) outcome {
		cfg := core.MSPlusConfig()
		cfg.JIT = jit
		sys, err := core.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Shutdown()
		if err := sys.FileIn("primes.st", primeCounterSource); err != nil {
			t.Fatal(err)
		}
		var o outcome
		for i, expr := range jitExampleCorpus {
			out, err := sys.Evaluate(expr)
			if err != nil {
				t.Fatalf("corpus[%d] (jit=%v): %v", i, jit, err)
			}
			o.answers = append(o.answers, out)
		}
		o.vt = sys.Stats()
		o.clock = int64(sys.VirtualTime())
		return o
	}
	off, on := run(false), run(true)
	for i := range jitExampleCorpus {
		if off.answers[i] != on.answers[i] {
			t.Errorf("corpus[%d]: answers diverge — interpreted %q, compiled %q",
				i, off.answers[i], on.answers[i])
		}
	}
	if off.clock != on.clock {
		t.Errorf("virtual clock diverges: interpreted %d, compiled %d", off.clock, on.clock)
	}
	if on.vt.Interp.JITCompiles == 0 {
		t.Error("tier never compiled on the examples corpus")
	}
	if o, n := neutralJIT(off.vt), neutralJIT(on.vt); !reflect.DeepEqual(o, n) {
		t.Errorf("stats diverge beyond the tier's counters:\noff: %+v\non:  %+v", o, n)
	}
}

// TestJITDifferentialParallel runs the fork/join workload in the
// true-parallel host mode (goroutine processors). Virtual clocks are
// host-schedule-dependent there, so the differential contract weakens
// to answers: the compiled tier must produce the same results, with
// the tier demonstrably active, on every run of a short stress loop.
func TestJITDifferentialParallel(t *testing.T) {
	run := func(jit bool) string {
		cfg := core.MSPlusConfig()
		cfg.Parallel = true
		cfg.JIT = jit
		sys, err := core.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Shutdown()
		if err := sys.FileIn("primes.st", primeCounterSource); err != nil {
			t.Fatal(err)
		}
		out, err := sys.Evaluate(jitParallelProgram)
		if err != nil {
			t.Fatalf("parallel run (jit=%v): %v", jit, err)
		}
		if jit {
			if st := sys.Stats().Interp; st.JITCompiles == 0 || st.JITBytecodes == 0 {
				t.Errorf("parallel tier never ran (compiles=%d bytecodes=%d)",
					st.JITCompiles, st.JITBytecodes)
			}
		}
		return out
	}
	want := run(false)
	// Several compiled runs: parallel scheduling varies, the answer may
	// not (this is also the -race stress target in CI).
	for i := 0; i < 3; i++ {
		if got := run(true); got != want {
			t.Fatalf("parallel run %d: compiled answer %q, interpreted answer %q", i, got, want)
		}
	}
}

// TestFramesMatchAccessors holds the interpreter's two slot paths to
// equality with no hook: a deterministic system runs its operand stack,
// temps and activations on the register window (heap.Frame views), a
// Parallel one gets no views and takes the word accessors everywhere.
// With one processor the parallel host mode is deterministic too, so the
// same programs must give the same answers, the same virtual clock and
// the same interpreter and heap statistics, field for field, on both
// engines — on the default heap, and on the scavenge-storm heap of
// frame_test.go, where most stores go into tenured contexts and the
// window has to tell a store that needs the check from one that does not.
func TestFramesMatchAccessors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		jit   bool
		storm bool
	}{{"switch", false, false}, {"msjit", true, false}, {"switch-storm", false, true}, {"msjit-storm", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				answers []string
				clock   int64
				stats   core.Stats
			}
			run := func(parallel bool) outcome {
				cfg := core.MSPlusConfig()
				cfg.Processors = 1
				cfg.JIT = tc.jit
				cfg.Parallel = parallel
				corpus, source := jitExampleCorpus, primeCounterSource
				if tc.storm {
					cfg.EdenWords, cfg.SurvivorWords, cfg.OldWords, cfg.TenureAge = 1024, 512, 4<<20, 1
					corpus, source = frameStormPrograms, frameStormSource
				}
				sys, err := core.NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Shutdown()
				if err := sys.FileIn("corpus.st", source); err != nil {
					t.Fatal(err)
				}
				var o outcome
				for i, expr := range corpus {
					out, err := sys.Evaluate(expr)
					if err != nil {
						t.Fatalf("corpus[%d] (parallel=%v): %v", i, parallel, err)
					}
					o.answers = append(o.answers, out)
				}
				o.clock = int64(sys.VirtualTime())
				o.stats = sys.Stats()
				return o
			}
			frames, accessors := run(false), run(true)
			if !reflect.DeepEqual(frames.answers, accessors.answers) {
				t.Errorf("answers diverge:\nframes:    %q\naccessors: %q", frames.answers, accessors.answers)
			}
			if frames.clock != accessors.clock {
				t.Errorf("virtual clock diverges: frames %d, accessors %d", frames.clock, accessors.clock)
			}
			if !reflect.DeepEqual(frames.stats.Interp, accessors.stats.Interp) {
				t.Errorf("interp.Stats diverge:\nframes:    %+v\naccessors: %+v", frames.stats.Interp, accessors.stats.Interp)
			}
			if !reflect.DeepEqual(frames.stats.Heap, accessors.stats.Heap) {
				t.Errorf("heap.Stats diverge:\nframes:    %+v\naccessors: %+v", frames.stats.Heap, accessors.stats.Heap)
			}
			if tc.jit && frames.stats.Interp.JITBytecodes == 0 {
				t.Error("tier never ran")
			}
		})
	}
}

// jitFaultSystem boots the tier with the flight recorder attached, so
// each fault-injection test can assert both the deopt counter and the
// recorded reason.
func jitFaultSystem(t *testing.T) *core.System {
	t.Helper()
	cfg := core.MSPlusConfig()
	cfg.Processors = 1
	cfg.JIT = true
	cfg.TraceEvents = trace.DefaultRingSize
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Shutdown)
	return sys
}

// deoptReasons counts KJITDeopt events in the ring by reason name.
func deoptReasons(sys *core.System) map[string]int {
	counts := map[string]int{}
	for _, ev := range sys.VM.M.Recorder().Events() {
		if ev.Kind == trace.KJITDeopt {
			counts[ev.Str]++
		}
	}
	return counts
}

// expectDeopt runs one fault-injection scenario: evaluate the trigger,
// check the answer, and demand at least one deopt with the expected
// recorded reason plus a clean follow-up evaluation.
func expectDeopt(t *testing.T, sys *core.System, trigger string, want int64, reason string) {
	t.Helper()
	before := sys.Stats().Interp.JITDeopts
	got, err := sys.EvaluateInt(trigger)
	if err != nil {
		t.Fatalf("trigger: %v", err)
	}
	if got != want {
		t.Errorf("trigger answered %d, want %d", got, want)
	}
	if delta := sys.Stats().Interp.JITDeopts - before; delta == 0 {
		t.Errorf("no deopt recorded (expected reason %q)", reason)
	}
	if n := deoptReasons(sys)[reason]; n == 0 {
		t.Errorf("no %q deopt event in the ring (have %v)", reason, deoptReasons(sys))
	}
	// Clean continuation: the system still computes after falling back.
	if n, err := sys.EvaluateInt("(1 to: 10) inject: 0 into: [:a :b | a + b]"); err != nil || n != 55 {
		t.Errorf("post-deopt evaluation broken: %d, %v", n, err)
	}
}

// TestJITDeoptFaultInjection drives each deoptimization cause on
// purpose — megamorphic retirement, decompiler attach, snapshot,
// thisContext, and doesNotUnderstand: — and checks the tier bails to
// the interpreter at a bytecode boundary with the right recorded
// reason and keeps producing correct answers.
func TestJITDeoptFaultInjection(t *testing.T) {
	t.Run("megamorphic", func(t *testing.T) {
		sys := jitFaultSystem(t)
		// Nine receiver classes at one send site: the 8-way polymorphic
		// inline cache retires the site, which must deopt and blacklist
		// the running compiled method.
		src := `Object subclass: #MegaDriver
	instanceVariableNames: ''
	category: 'T'!

!MegaDriver methodsFor: 't'!
hit: x
	^x poke! !
`
		for k := 1; k <= 9; k++ {
			src += fmt.Sprintf(`Object subclass: #Mega%d
	instanceVariableNames: ''
	category: 'T'!

!Mega%d methodsFor: 't'!
poke
	^%d! !
`, k, k, k)
		}
		if err := sys.FileIn("mega.st", src); err != nil {
			t.Fatal(err)
		}
		// Warm hit: monomorphically until compiled, then march eight
		// more classes through the same site; the ninth class retires
		// it mid-compiled-run. 30*1 + (2+..+9) = 74.
		trigger := `| d s |
	d := MegaDriver new.
	s := 0.
	1 to: 30 do: [:i | s := s + (d hit: Mega1 new)].
	s := s + (d hit: Mega2 new) + (d hit: Mega3 new) + (d hit: Mega4 new)
		+ (d hit: Mega5 new) + (d hit: Mega6 new) + (d hit: Mega7 new)
		+ (d hit: Mega8 new) + (d hit: Mega9 new).
	^s`
		expectDeopt(t, sys, trigger, 74, "megamorphic")
	})

	t.Run("decompile", func(t *testing.T) {
		sys := jitFaultSystem(t)
		// A method that decompiles itself while running: the decompiler
		// attach must demote the running compiled method to the
		// interpreter. The hotness counter restarts each time, so a
		// nine-iteration loop compiles and deopts repeatedly.
		src := `Object subclass: #DecProbe
	instanceVariableNames: ''
	category: 'T'!

!DecProbe methodsFor: 't'!
selfDecompile
	^(DecProbe compiledMethodAt: #selfDecompile) decompileString size! !
`
		if err := sys.FileIn("dec.st", src); err != nil {
			t.Fatal(err)
		}
		one, err := sys.EvaluateInt("DecProbe new selfDecompile")
		if err != nil {
			t.Fatal(err)
		}
		trigger := `| s |
	s := 0.
	1 to: 9 do: [:i | s := s + DecProbe new selfDecompile].
	^s`
		expectDeopt(t, sys, trigger, 9*one, "decompile")
	})

	t.Run("snapshot", func(t *testing.T) {
		sys := jitFaultSystem(t)
		path := filepath.Join(t.TempDir(), "fault.image")
		// The snapshot invalidates the whole tier (plans and hotness), so
		// a method that always snapshots can never get hot. Warm the
		// method with non-snapshotting calls; only the third, compiled
		// activation hits the primitive, which parks every Process and
		// must deopt the running frame.
		src := `Object subclass: #SnapProbe
	instanceVariableNames: ''
	category: 'T'!

!SnapProbe class methodsFor: 't'!
save: path onlyIf: flag
	flag ifTrue: [Smalltalk snapshotTo: path].
	^1! !
`
		if err := sys.FileIn("snap.st", src); err != nil {
			t.Fatal(err)
		}
		trigger := fmt.Sprintf(`| s |
	s := 0.
	1 to: 3 do: [:i | s := s + (SnapProbe save: '%s' onlyIf: i = 3)].
	^s`, path)
		expectDeopt(t, sys, trigger, 3, "snapshot")
	})

	t.Run("uncommon-bytecode", func(t *testing.T) {
		sys := jitFaultSystem(t)
		// thisContext compiles as a trap: perform the push, then bail
		// and pin the method to the interpreter.
		src := `Object subclass: #CtxProbe
	instanceVariableNames: ''
	category: 'T'!

!CtxProbe methodsFor: 't'!
mark
	thisContext.
	^7! !
`
		if err := sys.FileIn("ctx.st", src); err != nil {
			t.Fatal(err)
		}
		trigger := `| s |
	s := 0.
	1 to: 10 do: [:i | s := s + CtxProbe new mark].
	^s`
		expectDeopt(t, sys, trigger, 70, "uncommon-bytecode")
	})

	t.Run("dnu", func(t *testing.T) {
		sys := jitFaultSystem(t)
		// A hot method whose send always reships through
		// doesNotUnderstand: — the tier refuses to carry the reship
		// compiled and must bail each time it recompiles.
		src := `Object subclass: #DnuReceiver
	instanceVariableNames: ''
	category: 'T'!

!DnuReceiver methodsFor: 't'!
doesNotUnderstand: aMessage
	^3! !

Object subclass: #DnuDriver
	instanceVariableNames: ''
	category: 'T'!

!DnuDriver methodsFor: 't'!
poke: p
	^p zork! !
`
		if err := sys.FileIn("dnu.st", src); err != nil {
			t.Fatal(err)
		}
		trigger := `| d p s |
	d := DnuDriver new.
	p := DnuReceiver new.
	s := 0.
	1 to: 12 do: [:i | s := s + (d poke: p)].
	^s`
		expectDeopt(t, sys, trigger, 36, "dnu")
	})
}
