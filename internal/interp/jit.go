package interp

import (
	"mst/internal/jit"
	"mst/internal/object"
	"mst/internal/trace"
)

// The msjit tier: what a hot method gets on top of the step() switch.
// The switch in interp.go is the only definition of the singleton
// bytecodes, and compiled methods keep running it. A method whose
// contexts have been loaded jit.CompileThreshold times is decoded once
// (internal/jit) and gains two things:
//
//   - fused groups: a pc-indexed array that holds one closure at the
//     head pc of every profitable straight-line group (jitfuse.go) and
//     nil everywhere else. The quantum loop charges the bytecode, then
//     runs fns[pc]() if there is one and step() otherwise;
//   - an activation plan (jitEntry): everything loadContext and
//     activateMethod re-derive per send, captured once per method.
//
// A fused group charges exactly what its bytecodes charge one by one and
// commits exactly their net effect, so virtual times, counters, goldens,
// and fingerprints are bit-identical with the tier on or off; the payoff
// is host nanoseconds only.
//
// The tier state is strictly per-interpreter (the paper's replication
// discipline): each processor owns its plan table, hotness counters,
// and compiled bodies, so parallel host mode compiles without locks.
// The plan table keys by raw method oops and is discarded before every
// scavenge (vm.go OnPreScavenge), like the method cache. The compiled
// bodies capture no raw oops at all — operands are indices resolved
// through the interpreter registers — so they survive scavenges (keyed
// by the equally durable icMethod instances) and die only at the
// method-install safepoint that resets the inline caches
// (flushAllCaches) or on a snapshot.
//
// Deopt is trivial by construction: in.pc is the interpreter's own
// register and a fused group either commits whole or changes nothing, so
// abandoning compiled code is just `in.jfns = nil` — execution resumes
// at the next bytecode boundary with no state reconstruction. Reasons:
// megamorphic IC retirement (icFill), decompiler/debugger attach
// (PrimDecompile), snapshot (primSnapshot), the uncommon bytecode
// (thisContext: step() performs the push, then traps), and
// doesNotUnderstand: (sendDNU).

// jitFrameTag marks profiler frames whose busy ticks accrued while the
// method ran compiled (selector-profiler tier attribution).
const jitFrameTag = trace.JITTag

// jitFn is one fused group, pre-bound to its interpreter.
type jitFn func()

// jitCode is one method's compiled form in one interpreter's cache.
type jitCode struct {
	fns []jitFn // indexed by pc; non-nil only at fused-group heads
	n   int     // instruction count (observability)
}

// jitTabSize is the per-processor method-plan table size (entries,
// power of two, direct-mapped). Collisions evict: the loser re-warms
// through jitEnter if it runs again.
const jitTabSize = 4096

func jitTabIndex(method object.OOP) int {
	return int((uint64(method) >> 3) & (jitTabSize - 1))
}

// jitEntry is one method's tier state: the hotness counter, the
// compiled form once hot, and the activation plan — everything
// loadContext re-derives on every context switch (literal-frame
// fetches, the code and inline-cache map probes, the header decode),
// captured once per method. Plans hold raw oops and are only ever
// consulted while the caches are live: the whole table is discarded
// before every scavenge and at the method-install safepoint.
type jitEntry struct {
	method object.OOP // Invalid = empty slot
	count  uint32     // loads seen, toward jit.CompileThreshold
	bad    bool       // ineligible (undecodable, megamorphic, trapped)
	large  bool       // needs a large context
	ntemps int        // temp count from the method header
	bytes  object.OOP
	lits   object.OOP
	code   []byte
	icm    *icMethod
	jc     *jitCode // compiled form; nil until hot
}

// jitEnter, called from loadContext's slow path after the generic
// derivation, claims (or re-claims) the method's plan slot so every
// later load and activation of the method takes the fast path. The
// previous occupant of a colliding slot loses its plan and hotness.
// A body compiled before the last scavenge is resurrected from
// jitKeep: a scavenge invalidates the plans (raw oops), never the
// compiled code.
func (in *Interp) jitEnter() {
	in.jfns = nil
	if in.method == object.Nil {
		return
	}
	hdr := in.vm.H.Fetch(in.method, CMHeader)
	ntemps := headerNumTemps(hdr)
	e := &in.jitTab[jitTabIndex(in.method)]
	*e = jitEntry{
		method: in.method,
		count:  1,
		large:  ntemps+headerMaxStack(hdr)+2 > SmallCtxSlots,
		ntemps: ntemps,
		bytes:  in.bytes,
		lits:   in.lits,
		code:   in.code,
		icm:    in.icm,
	}
	if in.icm != nil {
		if jc, ok := in.jitKeep[in.icm]; ok {
			e.jc = jc
			in.jfns = jc.fns
		}
	}
}

// jitLoadFast is loadContext's plan-table hit path: install the cached
// derivation and either enter compiled code or advance the hotness
// counter. Reports false (and leaves the registers for the generic
// path) when the method has no resident plan.
func (in *Interp) jitLoadFast() bool {
	e := &in.jitTab[jitTabIndex(in.method)]
	if e.method != in.method {
		in.jfns = nil
		return false
	}
	in.bytes = e.bytes
	in.lits = e.lits
	in.code = e.code
	in.icm = e.icm
	if jc := e.jc; jc != nil {
		in.jfns = jc.fns
		return true
	}
	in.jfns = nil
	if !e.bad {
		e.count++
		if e.count >= jit.CompileThreshold {
			in.jitCompile(e)
		}
	}
	return true
}

// jitCompile template-compiles the current method into its plan entry.
// Compilation is host work only: it charges no virtual time and
// touches no simulated state, so det and parallel runs stay
// bit-identical with the tier on.
func (in *Interp) jitCompile(e *jitEntry) {
	// Only monomorphic/polymorphic-stable methods: a method that has
	// already retired a send site as megamorphic stays interpreted.
	if e.icm != nil {
		for i := range e.icm.sites {
			if e.icm.sites[i].mega {
				e.bad = true
				return
			}
		}
	}
	// A body compiled before a forget (or a plan eviction) is
	// resurrected rather than rebuilt: the inline-cache state it binds
	// to is unchanged, and resurrection is not a compile (no event, no
	// counter — the tier state just came back).
	if e.icm != nil {
		if jc, ok := in.jitKeep[e.icm]; ok {
			e.jc = jc
			in.jfns = jc.fns
			return
		}
	}
	prog, err := jit.Compile(e.code)
	if err != nil {
		e.bad = true
		return
	}
	prog.Specialize(in.costs)
	jc := in.jitBuild(prog)
	e.jc = jc
	if e.icm != nil {
		in.jitKeep[e.icm] = jc
	}
	in.jfns = jc.fns
	in.stats.JITCompiles++
	if in.rec != nil {
		h := in.vm.H
		name := ""
		if sel := h.Fetch(e.method, CMSelector); sel != object.Nil && sel.IsPtr() &&
			h.Header(sel).Format() == object.FmtBytes {
			name = string(h.Bytes(sel))
		}
		in.rec.Emit(trace.KJITCompile, in.p.ID(), int64(in.p.Now()), int64(jc.n), 0, name)
	}
}

// jitActivate is the tier's fast method activation: when the callee has
// a resident plan and a recyclable context on this processor's free
// list, the header decode, the handle dance (a free-list pop cannot
// scavenge), and loadContext's re-derivation all disappear. The heap
// stores, virtual charges, stats, and trace emissions are exactly the
// generic path's. Reports false to fall back (no plan, shared free
// lists, or an empty free list — heap allocation may GC and needs the
// handles).
func (in *Interp) jitActivate(method object.OOP, nargs int) bool {
	e := &in.jitTab[jitTabIndex(method)]
	if e.method != method {
		return false
	}
	vm := in.vm
	if vm.Cfg.FreeContexts == FreeCtxSharedLocked {
		return false
	}
	list := &in.freeSmall
	slots := SmallCtxSlots
	if e.large {
		list = &in.freeLarge
		slots = LargeCtxSlots
	}
	n := len(*list)
	if n == 0 {
		return false
	}
	nc := (*list)[n-1]
	*list = (*list)[:n-1]
	in.p.Advance(in.costs.FreeListPop)

	h := vm.H
	ntemps := e.ntemps
	// The recycle watermark (recycleContext): slots at or above it are
	// already nil in a frame that died cleanly, so the activation
	// nil-fill shrinks from the whole slot area to the part the dead
	// frame actually dirtied.
	wm := int(h.Fetch(nc, CtxSP).Int())
	if wm > slots {
		wm = slots
	}
	receiver := in.initContext(nc, method, nargs, ntemps, slots, wm)

	// loadContext, with every derivation replaced by the plan (a fresh
	// method context: pc 0, sp at the temps, slot capacity by size
	// class).
	in.ctx = nc
	in.isBlock = false
	in.home = nc
	in.method = method
	in.receiver = receiver
	in.bytes = e.bytes
	in.lits = e.lits
	in.code = e.code
	in.icm = e.icm
	in.pc = 0
	in.sp = ntemps
	in.slotCap = slots
	in.bindFrames()
	if jc := e.jc; jc != nil {
		in.jfns = jc.fns
	} else {
		in.jfns = nil
		if !e.bad {
			e.count++
			if e.count >= jit.CompileThreshold {
				in.jitCompile(e)
			}
		}
	}
	if vm.prof != nil {
		in.profSync()
	}
	return true
}

// jitDeopt abandons the compiled code the interpreter is currently
// running. Callers are at a bytecode boundary (a fused group never
// deopts mid-group), so the fallback needs no frame reconstruction.
func (in *Interp) jitDeopt(reason jit.DeoptReason) {
	if in.jfns == nil {
		return
	}
	in.jfns = nil
	in.stats.JITDeopts++
	in.rec.Emit(trace.KJITDeopt, in.p.ID(), int64(in.p.Now()), int64(reason), 0, reason.String())
}

// jitBlacklist pins a resident method to the interpreter. A method
// whose plan was evicted loses the mark, which is harmless: the next
// compile attempt re-discovers the ineligibility (megamorphic sites
// persist in the inline caches; traps re-fire).
func (in *Interp) jitBlacklist(method object.OOP) {
	if in.jitTab == nil {
		return
	}
	in.jitDiscard(method)
	if e := &in.jitTab[jitTabIndex(method)]; e.method == method {
		e.bad = true
		e.jc = nil
		e.count = 0
	}
}

// jitDiscard drops a method's persistent compiled body, preventing
// resurrection after the next scavenge.
func (in *Interp) jitDiscard(method object.OOP) {
	if in.ic != nil {
		if icm, ok := in.ic[method]; ok {
			delete(in.jitKeep, icm)
		}
	}
}

// jitForget demotes one method to the interpreter (decompiler/debugger
// attach): its plan loses the compiled code and the hotness restarts,
// so the tool sees pure interpreter activations while attached. The
// compiled body itself is retained in jitKeep — decompiling does not
// change the method (replacement goes through the install safepoint,
// which drops everything), so when the method runs hot again after the
// tool detaches, jitCompile resurrects the body instead of recompiling.
// Only the owning interpreter is touched — the tier state is
// per-processor, so this stays race-free in parallel mode.
func (in *Interp) jitForget(method object.OOP) {
	if !in.jitOn {
		return
	}
	if e := &in.jitTab[jitTabIndex(method)]; e.method == method {
		e.jc = nil
		e.count = 0
		e.bad = false
	}
	if in.method == method {
		in.jitDeopt(jit.DeoptDecompile)
	}
}

// jitFlush discards this interpreter's plan table, called before every
// scavenge: plans hold raw oops. The compiled bodies in jitKeep hold
// none (operands are indices) and survive — methods re-enter through
// jitEnter at their next load and resurrect compiled. Cache
// invalidation is not a deopt: no event, no counter.
func (in *Interp) jitFlush() {
	if !in.jitOn {
		return
	}
	in.jfns = nil
	clear(in.jitTab)
}

// jitInvalidate discards the whole tier — plans and compiled bodies —
// at the method-install safepoint (flushAllCaches): the inline-cache
// state the bodies bind to is reset there, so everything recompiles.
func (in *Interp) jitInvalidate() {
	if !in.jitOn {
		return
	}
	in.jfns = nil
	clear(in.jitTab)
	clear(in.jitKeep)
}

// jitDeoptAll deopts and fully invalidates every interpreter's tier
// (snapshot: every context must park in a pure interpreter state).
func (vm *VM) jitDeoptAll(reason jit.DeoptReason) {
	for _, in := range vm.Interps {
		if !in.jitOn {
			continue
		}
		in.jitDeopt(reason)
		clear(in.jitTab)
		clear(in.jitKeep)
	}
}

// jitBuild installs one closure per profitable fused group, at the
// group's head pc, and nothing else: every other pc stays nil and runs
// step(), so jumps into the middle of a group, quantum tails, and fused
// bailouts all execute the one switch. The closures capture only
// scavenge-stable state — operand integers and the interpreter itself;
// anything that moves (literals, globals) is re-read through the
// registers at run time — which is what lets compiled code outlive
// scavenges.
func (in *Interp) jitBuild(prog *jit.Program) *jitCode {
	fns := make([]jitFn, prog.CodeLen)
	for i := range prog.Instrs {
		if f := jit.Fuse(prog, i); f != nil {
			pc := prog.Instrs[i].PC
			fns[pc] = in.jitFuseFn(f, fns, pc)
		}
	}
	return &jitCode{fns: fns, n: len(prog.Instrs)}
}
