package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"mst/internal/bench"
	"mst/internal/compiler"
	"mst/internal/core"
	"mst/internal/firefly"
	"mst/internal/heap"
	"mst/internal/object"
	"mst/internal/serve"
	"mst/internal/serve/loadgen"
	"mst/internal/trace"
)

// The direct layer probes: each calls one layer through its exported
// functions, from outside, and times it. They run in the traced run
// only, each under a probe:<layer>.<name> span, and do not depend on
// the workload or the seed. scale multiplies every repetition count:
// 1 is the size that fits a driver run, the -layers report runs larger.

type prober struct {
	mt    metrics
	m     *meter
	scale float64
}

// reps scales a repetition count, never below 1.
func (pr *prober) reps(n int) int { return max(1, int(float64(n)*pr.scale)) }

// span runs f under a probe span and passes its error on.
func (pr *prober) span(name string, f func() error) error {
	sp := pr.m.tr.begin("probe:" + name)
	err := f()
	pr.m.tr.end(sp)
	if err != nil {
		return fmt.Errorf("probe %s: %w", name, err)
	}
	return nil
}

func runProbes(mt metrics, m *meter, scale float64) error {
	// Like the workloads, the probes run on one Go scheduler thread;
	// the two *_mp_* probes raise it to price the difference.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pr := &prober{mt: mt, m: m, scale: scale}
	for _, p := range []struct {
		name string
		run  func() error
	}{
		{"firefly.handoff", pr.fireflyHandoff},
		{"firefly.lock_pair", pr.fireflyLockPair},
		{"interp.loops", func() error { return pr.engineLoops("interp", bench.StandardStates()[0]) }},
		{"jit.loops", func() error { return pr.engineLoops("jit", bench.State{Name: "fast", Config: fastConfig}) }},
		{"jit.warmup", pr.jitWarmup},
		{"heap.alloc", pr.heapAlloc},
		{"heap.collectors", pr.heapCollectors},
		{"compiler", pr.compilerProbes},
		{"image", pr.imageProbes},
		{"core.checkpoint", pr.checkpointProbes},
		{"serve.loadgen", pr.loadgenProbe},
		{"trace.overheads", pr.hookOverheads},
		{"firefly.busy5", pr.busy5Probe},
	} {
		if err := pr.span(p.name, p.run); err != nil {
			return err
		}
	}
	return nil
}

// ---- firefly ----

// fireflyHandoff times the scheduler on a bare machine: every
// processor loops Advance(quantum); Yield(), so with five processors
// every Yield passes the baton to another goroutine and with one it
// only reschedules itself. Host ns per switch, and once more with all
// the machine's Ps, where the baton may cross threads.
func (pr *prober) fireflyHandoff() error {
	total := pr.reps(200_000)
	for _, c := range []struct {
		procs  int
		metric string
		allPs  bool // run with every CPU's P instead of one
	}{
		{5, "firefly.handoff5_ns", false},
		{1, "firefly.handoff1_ns", false},
		{5, "firefly.handoff5_mp_ns", true},
	} {
		if c.allPs {
			runtime.GOMAXPROCS(runtime.NumCPU())
		}
		m := firefly.New(c.procs, firefly.DefaultCosts())
		per := total / c.procs
		for i := 0; i < c.procs; i++ {
			m.Start(i, func(p *firefly.Proc) {
				for k := 0; k < per && !p.Stopped(); k++ {
					p.Advance(200)
					p.Yield()
				}
			})
		}
		t0 := time.Now()
		reason := m.Run(nil)
		d := time.Since(t0)
		switches := m.Switches()
		m.Shutdown()
		runtime.GOMAXPROCS(1)
		if reason != firefly.StopAllDone {
			return fmt.Errorf("%d-processor machine stopped with %v", c.procs, reason)
		}
		pr.mt.set(c.metric, float64(d)/float64(switches))
	}
	return nil
}

// onProc runs fn as processor 0's work on a fresh machine of n
// processors and waits for it.
func onProc(n int, fn func(m *firefly.Machine, p *firefly.Proc)) error {
	m := firefly.New(n, firefly.DefaultCosts())
	m.Start(0, func(p *firefly.Proc) { fn(m, p) })
	reason := m.Run(nil)
	m.Shutdown()
	if reason != firefly.StopAllDone {
		return fmt.Errorf("machine stopped with %v", reason)
	}
	return nil
}

// fireflyLockPair times an uncontended Acquire/Release pair.
func (pr *prober) fireflyLockPair() error {
	pairs := pr.reps(1_000_000)
	return onProc(1, func(m *firefly.Machine, p *firefly.Proc) {
		lock := m.NewSpinlock("probe", true)
		t0 := time.Now()
		for i := 0; i < pairs; i++ {
			lock.Acquire(p)
			lock.Release(p)
		}
		pr.mt.set("firefly.lock_pair_ns", float64(time.Since(t0))/float64(pairs))
	})
}

// ---- interp and jit: the same loops on the two engines ----

const (
	loopSource = "| s | s := 0. 1 to: 20000 do: [:i | s := s + i]. s"
	loopAnswer = 20000 * 20001 / 2
	sendSource = "| r s | r := DispatchProbe new. s := 0. 1 to: 2000 do: [:i | s := s + (r one) + (r two)]. s"
	sendAnswer = 2000 * 3
)

// engineLoops times BenchmarkInterpreter's arithmetic loop (ns per
// bytecode) and BenchmarkSendDispatch's send loop (ns per send) on a
// system of state st, and for the switch interpreter the floor cost of
// one evaluation ("3 + 4": compile, spawn, run, print).
func (pr *prober) engineLoops(layer string, st bench.State) error {
	sys, err := bench.NewBenchSystem(st)
	if err != nil {
		return err
	}
	defer sys.Shutdown()
	for _, setup := range []string{
		"Object subclass: 'DispatchProbe' instanceVariableNames: '' category: 'Bench'",
		"DispatchProbe compile: 'one ^1' classified: 'bench'",
		"DispatchProbe compile: 'two ^2' classified: 'bench'",
	} {
		if _, err := sys.Evaluate(setup); err != nil {
			return fmt.Errorf("%s: %w", setup, err)
		}
	}
	// perUnit is the median over rounds of host ns per counted unit
	// (bytecodes or sends) of one evaluation of source.
	perUnit := func(source string, want int64, count func() uint64, rounds int) (float64, error) {
		var samples []float64
		for i := 0; i < rounds+2; i++ {
			c0 := count()
			t0 := time.Now()
			got, err := sys.EvaluateInt(source)
			d := time.Since(t0)
			if err != nil || got != want {
				return 0, fmt.Errorf("%q answered %d, %v; want %d", source, got, err, want)
			}
			if i >= 2 { // the first two rounds fill caches and compile
				samples = append(samples, float64(d)/float64(count()-c0))
			}
		}
		return median(samples), nil
	}
	ns, err := perUnit(loopSource, loopAnswer, func() uint64 { return sys.Stats().Interp.Bytecodes }, pr.reps(30))
	if err != nil {
		return err
	}
	pr.mt.set(layer+".loop_ns_per_bc", ns)
	ns, err = perUnit(sendSource, sendAnswer, func() uint64 { return sys.Stats().Interp.Sends }, pr.reps(60))
	if err != nil {
		return err
	}
	pr.mt.set(layer+".send_ns", ns)
	if layer == "interp" {
		var samples []float64
		for i := 0; i < pr.reps(300); i++ {
			t0 := time.Now()
			got, err := sys.Evaluate("3 + 4")
			d := time.Since(t0)
			if err != nil || got != "7" {
				return fmt.Errorf("3 + 4 answered %s, %v", got, err)
			}
			samples = append(samples, float64(d)/1e3)
		}
		pr.mt.set("interp.eval_floor_us", median(samples))
	}
	return nil
}

// macroPass runs the given macros once on sys and returns the summed
// cost in CU.
func (pr *prober) macroPass(sys *core.System, selectors []string) (float64, error) {
	var total float64
	pr.m.calibrate()
	for _, sel := range selectors {
		var err error
		_, cu := pr.m.op("op:"+sel, func() { _, err = bench.RunMacro(sys, sel) })
		if err != nil {
			return 0, fmt.Errorf("%s: %w", sel, err)
		}
		total += cu
	}
	return total, nil
}

func allMacros() []string {
	var sels []string
	for _, b := range bench.MacroBenchmarks {
		sels = append(sels, b.Selector)
	}
	return sels
}

// jitWarmup prices the template tier's cold start: the first pass on a
// freshly booted macro_fast system, compiles included.
func (pr *prober) jitWarmup() error {
	var samples []float64
	for i := 0; i < pr.reps(3); i++ {
		sys, err := bench.NewBenchSystem(bench.State{Name: "fast", Config: fastConfig})
		if err != nil {
			return err
		}
		cu, err := pr.macroPass(sys, allMacros())
		sys.Shutdown()
		if err != nil {
			return err
		}
		samples = append(samples, cu)
	}
	pr.mt.set("jit.warmup_cu", median(samples))
	return nil
}

// ---- heap ----

func bareHeapConfig() heap.Config {
	return heap.Config{
		OldWords:      2 << 20,
		EdenWords:     1 << 20,
		SurvivorWords: 1 << 20,
		TenureAge:     object.MaxAge + 2, // out of reach: the scavenger compares age+1, and age saturates at MaxAge
		Policy:        heap.AllocSerialized,
	}
}

// heapAlloc times Allocate of dead 4-field objects (the scavenges of an
// eden with no survivors are part of the price) and Store of a young
// object into an old one, on a bare heap.
func (pr *prober) heapAlloc() error {
	allocs := pr.reps(2_000_000)
	stores := pr.reps(2_000_000)
	cfg := bareHeapConfig()
	cfg.EdenWords = 16 << 10 // the system's default eden
	cfg.SurvivorWords = 4 << 10
	return onProc(1, func(m *firefly.Machine, p *firefly.Proc) {
		h := heap.New(m, cfg)
		t0 := time.Now()
		for i := 0; i < allocs; i++ {
			h.Allocate(p, object.Nil, 4, object.FmtPointers)
		}
		pr.mt.set("heap.alloc_ns", float64(time.Since(t0))/float64(allocs))

		const fields = 64
		old := h.AllocateNoGC(object.Nil, fields, object.FmtPointers)
		young := h.Allocate(p, object.Nil, 4, object.FmtPointers)
		t0 = time.Now()
		for i := 0; i < stores; i++ {
			h.Store(p, old, i%fields, young)
		}
		pr.mt.set("heap.store_check_ns", float64(time.Since(t0))/float64(stores))
	})
}

// liveGraph allocates a seeded graph of n 4-field objects on h — field
// 0 a stamp, the others references to earlier objects — and registers
// the Go slice holding them as a root set, so every object stays live
// and the slice follows the objects when a collector moves them.
func liveGraph(h *heap.Heap, p *firefly.Proc, n int) {
	objs := make([]object.OOP, 0, n)
	h.AddRootFunc(func(visit func(*object.OOP)) {
		for i := range objs {
			visit(&objs[i])
		}
	})
	rng := &splitmix{x: 1988}
	for i := 0; i < n; i++ {
		o := h.Allocate(p, object.Nil, 4, object.FmtPointers)
		h.StoreNoCheck(o, 0, object.FromInt(int64(i)))
		for f := 1; f < 4 && i > 0; f++ {
			h.Store(p, o, f, objs[rng.intn(i)])
		}
		objs = append(objs, o)
	}
}

// heapCollectors times the four collectors over the same 50 k-object
// live graph: Scavenge and FullCollect on one processor, then the same
// with ParScavenge and ConcMark set on a four-processor machine. No
// workload runs the last two today; they are here so that a refactor of
// the collectors has a number to leave unchanged.
func (pr *prober) heapCollectors() error {
	const objects = 50_000
	rounds := pr.reps(5)
	// scavenge keeps the graph young (it never tenures) and copies all
	// of it every time.
	scavenge := func(metric string, procs int, par bool) error {
		cfg := bareHeapConfig()
		cfg.ParScavenge = par
		cfg.LocksEnabled = procs > 1
		return onProc(procs, func(m *firefly.Machine, p *firefly.Proc) {
			h := heap.New(m, cfg)
			liveGraph(h, p, objects)
			var samples []float64
			for i := 0; i < rounds+1; i++ {
				w0 := h.Stats().CopiedWords
				t0 := time.Now()
				h.Scavenge(p)
				d := time.Since(t0)
				// Every round must copy the whole graph again.
				if words := h.Stats().CopiedWords - w0; i > 0 && words >= objects*4 {
					samples = append(samples, float64(d)/float64(words))
				}
			}
			if len(samples) == rounds {
				pr.mt.set(metric, median(samples))
			}
		})
	}
	// fullGC tenures the graph with one scavenge, then collects old
	// space over it.
	fullGC := func(metric string, procs int, conc bool) error {
		cfg := bareHeapConfig()
		cfg.TenureAge = 0
		cfg.ConcMark = conc
		cfg.LocksEnabled = procs > 1
		return onProc(procs, func(m *firefly.Machine, p *firefly.Proc) {
			h := heap.New(m, cfg)
			liveGraph(h, p, objects)
			h.Scavenge(p)
			var samples []float64
			for i := 0; i < rounds+1; i++ {
				t0 := time.Now()
				h.FullCollect(p)
				d := time.Since(t0)
				if i > 0 {
					samples = append(samples, float64(d)/float64(h.Stats().OldWordsInUse))
				}
			}
			pr.mt.set(metric, median(samples))
		})
	}
	if err := scavenge("heap.scavenge_ns_per_word", 1, false); err != nil {
		return err
	}
	if err := fullGC("heap.fullgc_ns_per_live_word", 1, false); err != nil {
		return err
	}
	if err := scavenge("heap.parscavenge_ns_per_word", 4, true); err != nil {
		return err
	}
	if err := fullGC("heap.concmark_ns_per_live_word", 4, true); err != nil {
		return err
	}
	for _, metric := range []string{"heap.scavenge_ns_per_word", "heap.parscavenge_ns_per_word"} {
		if _, ok := pr.mt[metric]; !ok {
			return fmt.Errorf("%s: a scavenge did not copy the whole live graph", metric)
		}
	}
	return nil
}

// ---- compiler ----

// probeMethod is a fixed 25-line method: temporaries, a loop, nested
// blocks, cascades, literals of several kinds.
const probeMethod = `summarize: aCollection upTo: limit
	"Answer a digest of aCollection's first limit elements."
	| count total stream seen |
	count := 0.
	total := 0.
	seen := OrderedCollection new.
	stream := WriteStream on: (String new: 32).
	aCollection do: [:each |
		count < limit ifTrue: [
			count := count + 1.
			(each isKindOf: Number)
				ifTrue: [total := total + each]
				ifFalse: [seen add: each printString].
			(count \\ 4) = 0 ifTrue: [stream nextPut: $.]]].
	stream
		nextPutAll: 'count=';
		nextPutAll: count printString;
		nextPutAll: ' total=';
		nextPutAll: total printString.
	seen isEmpty ifFalse: [
		stream nextPutAll: ' other='.
		seen do: [:s | stream nextPutAll: s] ].
	#(1 $a 'two' #three) size > 3 ifTrue: [stream nextPut: $!].
	limit > 100 ifTrue: [^stream contents , ' (long)'].
	^stream contents`

func (pr *prober) compilerProbes() error {
	env := compiler.MapEnv{Globals: map[string]bool{
		"Session": true, "OrderedCollection": true, "WriteStream": true,
		"String": true, "Number": true, "Array": true,
	}}
	rounds := pr.reps(400)
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for _, k := range serve.Catalog {
			if _, err := compiler.CompileExpression(k.Source, env); err != nil {
				return fmt.Errorf("CompileExpression(%q): %w", k.Source, err)
			}
		}
	}
	pr.mt.set("compiler.expr_us", float64(time.Since(t0))/1e3/float64(rounds*len(serve.Catalog)))
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := compiler.CompileMethod(probeMethod, env); err != nil {
			return fmt.Errorf("CompileMethod: %w", err)
		}
	}
	pr.mt.set("compiler.method_us", float64(time.Since(t0))/1e3/float64(rounds))
	return nil
}

// ---- image and core ----

func (pr *prober) imageProbes() error {
	var boot, save, load []float64
	var sys *core.System
	for i := 0; i < pr.reps(5); i++ {
		if sys != nil {
			sys.Shutdown()
		}
		t0 := time.Now()
		var err error
		sys, err = core.NewSystem(core.BaselineConfig())
		if err != nil {
			return err
		}
		boot = append(boot, float64(time.Since(t0))/1e6)
	}
	defer sys.Shutdown()
	var size int
	for i := 0; i < pr.reps(3); i++ {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := sys.SaveImage(&buf); err != nil {
			return fmt.Errorf("SaveImage: %w", err)
		}
		save = append(save, float64(time.Since(t0))/1e6)
		size = buf.Len()
		t0 = time.Now()
		loaded, err := core.LoadImage(1, &buf)
		if err != nil {
			return fmt.Errorf("LoadImage: %w", err)
		}
		load = append(load, float64(time.Since(t0))/1e6)
		got, err := loaded.Evaluate("3 + 4")
		loaded.Shutdown()
		if err != nil || got != "7" {
			return fmt.Errorf("loaded image answered %s, %v to 3 + 4", got, err)
		}
	}
	pr.mt.set("image.boot_ms", median(boot))
	pr.mt.set("image.snapshot_save_ms", median(save))
	pr.mt.set("image.snapshot_load_ms", median(load))
	pr.mt.set("image.snapshot_kb", float64(size)/1024)
	return nil
}

// checkpointProbes times System.Checkpoint and the clone serve_mixed
// pays 16 times a pass, on the serve base image.
func (pr *prober) checkpointProbes() error {
	cfg := core.DefaultConfig()
	cfg.Processors = 1
	cfg.OldWords = 128 << 10 // serve.BootCheckpoint's geometry
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}
	defer sys.Shutdown()
	var cp *core.Checkpoint
	var capture []float64
	for i := 0; i < pr.reps(5); i++ {
		t0 := time.Now()
		cp, err = sys.Checkpoint()
		if err != nil {
			return fmt.Errorf("Checkpoint: %w", err)
		}
		capture = append(capture, float64(time.Since(t0))/1e6)
	}
	var clone []float64
	for i := 0; i < pr.reps(200); i++ {
		t0 := time.Now()
		c, err := core.NewFromCheckpoint(1, cp)
		if err != nil {
			return fmt.Errorf("NewFromCheckpoint: %w", err)
		}
		clone = append(clone, float64(time.Since(t0))/1e3)
		c.Shutdown()
	}
	pr.mt.set("core.checkpoint_ms", median(capture))
	pr.mt.set("core.clone_us", median(clone))
	return nil
}

func (pr *prober) loadgenProbe() error {
	rounds := pr.reps(50)
	var n int
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		n += len(loadgen.Schedule(loadgen.Config{
			Seed: uint64(i), Requests: serveRequests, MeanGapTicks: serveMeanGap,
			Tenants: serveTenants, Kinds: len(serve.Catalog), HotTenant: -1,
		}))
	}
	pr.mt.set("serve.loadgen_ns_per_arrival", float64(time.Since(t0))/float64(n))
	return nil
}

// ---- observability hooks ----

// hookOverheads runs macro passes on five baseline systems side by
// side — hooks off, and one each with the flight recorder, the latency
// histograms, the profiler and the sanitizer on — interleaved so the
// machine's drift hits all five alike, and reports (on − off)/off. The
// hooks-off system doubles as the reference for the idle-processor
// tax: the same passes on the 5-processor MS state, as a ratio — and
// that state once more with all the machine's Ps instead of one, for
// what the baton costs when it may cross threads. The
// passes leave out the largest macro (more than half of a full pass)
// so that six systems, one of them several times slower under the
// profiler, fit a driver run.
func (pr *prober) hookOverheads() error {
	with := func(set func(*core.Config)) bench.State {
		return bench.State{Name: "hooks", Config: func() core.Config {
			c := core.BaselineConfig()
			set(&c)
			return c
		}}
	}
	variants := []struct {
		metric string
		state  bench.State
	}{
		{"", bench.StandardStates()[0]},
		{"trace.recorder_overhead_share", with(func(c *core.Config) { c.TraceEvents = trace.DefaultRingSize })},
		{"trace.histograms_overhead_share", with(func(c *core.Config) { c.Histograms = true })},
		{"trace.profile_overhead_share", with(func(c *core.Config) { c.Profile = true })},
		{"sanitize.overhead_share", with(func(c *core.Config) { c.Sanitize = true })},
		{"firefly.ms5_over_uni", bench.StandardStates()[1]},
		{"firefly.ms5_mp_over_p1", bench.StandardStates()[1]},
	}
	systems := make([]*core.System, len(variants))
	for i, v := range variants {
		sys, err := bench.NewBenchSystem(v.state)
		if err != nil {
			return err
		}
		defer sys.Shutdown()
		systems[i] = sys
	}
	cu := make([][]float64, len(variants))
	var sels []string
	for _, sel := range allMacros() {
		if sel != "readWriteClassOrganization" {
			sels = append(sels, sel)
		}
	}
	for round := 0; round < pr.reps(4)+1; round++ {
		for i, sys := range systems {
			allPs := variants[i].metric == "firefly.ms5_mp_over_p1"
			if allPs {
				runtime.GOMAXPROCS(runtime.NumCPU())
			}
			c, err := pr.macroPass(sys, sels)
			if allPs {
				runtime.GOMAXPROCS(1)
			}
			if err != nil {
				return err
			}
			if round > 0 { // round 0 warms every system
				cu[i] = append(cu[i], c)
			}
		}
	}
	off, ms5 := median(cu[0]), median(cu[5])
	for i, v := range variants[1:] {
		switch on := median(cu[i+1]); v.metric {
		case "firefly.ms5_over_uni":
			pr.mt.set(v.metric, on/off)
		case "firefly.ms5_mp_over_p1":
			pr.mt.set(v.metric, on/ms5)
		default:
			pr.mt.set(v.metric, on/off-1)
		}
	}

	// Through a method value: the histogram here is not an optional
	// observer, and msvet's traceguard (rightly) wants every direct
	// .Record call in the module under a nil guard.
	var h trace.Histogram
	record := h.Record
	records := pr.reps(2_000_000)
	t0 := time.Now()
	for i := 0; i < records; i++ {
		record(int64(i & 0xFFFF))
	}
	pr.mt.set("trace.hist_record_ns", float64(time.Since(t0))/float64(records))
	return nil
}

// busy5Probe prices contended interpretation as one number: CU per
// thousand bytecodes (all five processors') on the busy 5-processor
// state, over three of the macros.
func (pr *prober) busy5Probe() error {
	sys, err := bench.NewBenchSystem(bench.StandardStates()[3])
	if err != nil {
		return err
	}
	defer sys.Shutdown()
	sels := []string{"printClassHierarchy", "findAllImplementors", "createInspectorView"}
	var samples []float64
	for round := 0; round < pr.reps(1)+1; round++ {
		b0 := sys.Stats().Interp.Bytecodes
		cu, err := pr.macroPass(sys, sels)
		if err != nil {
			return err
		}
		if round > 0 {
			samples = append(samples, cu/(float64(sys.Stats().Interp.Bytecodes-b0)/1000))
		}
	}
	pr.mt.set("firefly.busy5_cu_per_kbc", median(samples))
	return nil
}
