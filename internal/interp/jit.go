package interp

import (
	"mst/internal/jit"
	"mst/internal/object"
	"mst/internal/trace"
)

// The msjit tier: what a hot method gets on top of the step() switch.
// The switch in interp.go is the only definition of the singleton
// bytecodes, and compiled methods keep running it. A method whose
// contexts have been loaded jit.CompileThreshold times (enter, plan.go)
// is decoded once (internal/jit) and gains fused groups: a pc-indexed
// array that holds one closure at the head pc of every profitable
// straight-line group (jitfuse.go) and nil everywhere else. The quantum
// loop charges the bytecode, then runs fns[pc]() if there is one and
// step() otherwise.
//
// A fused group charges exactly what its bytecodes charge one by one and
// commits exactly their net effect, so virtual times, counters, goldens,
// and fingerprints are bit-identical with the tier on or off; the payoff
// is host nanoseconds only.
//
// The tier state is strictly per-interpreter (the paper's replication
// discipline): hotness and eligibility ride in the interpreter's plan
// table (plan.go) and die with it before every scavenge. The fused
// bodies capture no raw oops at all — operands are indices resolved
// through the interpreter registers — so they survive scavenges, hanging
// off the equally durable icMethod (icMethod.jc): a plan miss finds the
// body there again, and it dies only with the inline caches, at the
// method-install safepoint (flushIC) or on a snapshot. Without inline
// caches there is nowhere durable to keep a body and a scavenge costs a
// recompile.
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

// jitCompile template-compiles a hot method into its plan. Compilation
// is host work only: it charges no virtual time and touches no simulated
// state, so det and parallel runs stay bit-identical with the tier on.
func (in *Interp) jitCompile(p *plan) {
	if p.icm != nil {
		// Only monomorphic/polymorphic-stable methods: a method that has
		// already retired a send site as megamorphic stays interpreted.
		for i := range p.icm.sites {
			if p.icm.sites[i].mega {
				p.bad = true
				return
			}
		}
		// A body set aside by a decompiler attach is resurrected rather
		// than rebuilt: the inline-cache state it binds to is unchanged.
		if p.jc = p.icm.jc; p.jc != nil {
			return
		}
	}
	prog, err := jit.Compile(p.code)
	if err != nil {
		p.bad = true
		return
	}
	prog.Specialize(in.costs)
	p.jc = in.jitBuild(prog)
	if p.icm != nil {
		p.icm.jc = p.jc
	}
	in.stats.JITCompiles++
	if in.rec != nil {
		h := in.vm.H
		name := ""
		if sel := h.Fetch(p.method, CMSelector); sel != object.Nil && sel.IsPtr() &&
			h.Header(sel).Format() == object.FmtBytes {
			name = string(h.Bytes(sel))
		}
		in.rec.Emit(trace.KJITCompile, in.p.ID(), int64(in.p.Now()), int64(p.jc.n), 0, name)
	}
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

// jitDemote takes method out of compiled code on this interpreter only
// (the tier state is per-processor, so this stays race-free in parallel
// mode): its resident plan loses the fused body and its hotness
// restarts but keeps any pin (a doIt's, set in planFor), and if it is
// the running method the interpreter leaves compiled code at this
// bytecode boundary. The reason decides the rest:
//
//	megamorphic, uncommon — the method changed protocol or reified its
//	    context: the durable body goes too and the plan is pinned to the
//	    interpreter. An evicted plan loses the pin, which is harmless:
//	    the next compile attempt re-discovers the ineligibility
//	    (megamorphic sites persist in the inline caches; traps re-fire).
//	dnu — an uncommon path the tier refuses to run fused: the durable
//	    body goes, the method may get hot again.
//	decompile — the tool must see pure interpreter activations while
//	    attached, but decompiling does not change the method, so the
//	    durable body stays and is resurrected when the method runs hot
//	    again after the tool detaches.
func (in *Interp) jitDemote(method object.OOP, reason jit.DeoptReason) {
	if p := &in.plans[planIndex(method)]; p.method == method {
		p.jc = nil
		p.count = 0
		p.bad = p.bad || reason == jit.DeoptMegamorphic || reason == jit.DeoptUncommon
	}
	if reason != jit.DeoptDecompile {
		if icm := in.ic[method]; icm != nil {
			icm.jc = nil
		}
	}
	if in.method == method {
		in.jitDeopt(reason)
	}
}

// jitDeoptAll deopts every interpreter and discards every plan and fused
// body (snapshot: every context must park in a pure interpreter state).
func (vm *VM) jitDeoptAll(reason jit.DeoptReason) {
	for _, in := range vm.Interps {
		in.jitDeopt(reason)
		in.flushPlans()
		for _, icm := range in.ic {
			icm.jc = nil
		}
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
