package interp

import (
	"mst/internal/jit"
	"mst/internal/object"
)

// The per-method plan: everything an interpreter needs from a
// CompiledMethod to run it — the only statement of that derivation.
// loadContext, activateMethod, refreshCode and flushAllCaches all go
// through planFor, on every engine.
//
// The table is a Table-3 replication row like the method cache: one per
// interpreter, direct-mapped, keyed by raw method oops, consulted by its
// owner only (so parallel host mode needs no lock), and emptied before
// every scavenge, at every method install and on a snapshot. A collision
// evicts; the loser re-derives (and restarts its hotness) when it runs
// again.

// planTabSize is the table size (entries, power of two). A constant
// chosen from measured traffic, not a knob: one pass of the eight macro
// workloads on baseline BS is 347 064 lookups, and the misses by size
// were 128 → 1.67 %, 256 → 0.79 % (half of them evictions), 512 →
// 0.62 %, 1024 → 0.45 %; a flush finds five occupied entries on average.
// Past 256 the miss rate barely moves while memory per interpreter (88
// bytes an entry, one table per tenant under msserve) doubles each step,
// and 512 entries read +15 to +24 % on serve_mixed setup_s (EXPERIMENTS.md,
// "One plan per method").
const planTabSize = 256

func planIndex(method object.OOP) int {
	return int(method>>3) & (planTabSize - 1)
}

// plan is one method's derivation, plus the msjit tier's per-method
// state (Config.JIT: hotness, eligibility, fused body).
type plan struct {
	method object.OOP // Invalid = empty slot
	bytes  object.OOP
	lits   object.OOP
	code   []byte    // host copy of bytes
	icm    *icMethod // inline-cache state (nil when ICs are off)
	ntemps int       // temp count from the method header
	// slots is the context size the method needs: a size class
	// (SmallCtxSlots or LargeCtxSlots), or the raw need when that exceeds
	// LargeCtxSlots and the method cannot be activated.
	slots int

	count uint32   // context loads seen, toward jit.CompileThreshold
	bad   bool     // ineligible for fusion (a doIt, undecodable, megamorphic, trapped)
	jc    *jitCode // fused body; nil until hot
}

// planFor returns method's resident plan, deriving it on a miss — the
// only place a CompiledMethod is taken apart on the run path. The
// pointer is into the table: it is stale after anything that may GC or
// install a method.
func (in *Interp) planFor(method object.OOP) *plan {
	i := planIndex(method)
	p := &in.plans[i]
	if p.method == method {
		return p
	}
	if p.method == object.Invalid {
		in.planUsed = append(in.planUsed, uint16(i))
	}
	h := in.vm.H
	hdr := h.Fetch(method, CMHeader)
	ntemps := headerNumTemps(hdr)
	slots := ntemps + headerMaxStack(hdr) + 2
	if slots <= SmallCtxSlots {
		slots = SmallCtxSlots
	} else if slots <= LargeCtxSlots {
		slots = LargeCtxSlots
	}
	bytes := h.Fetch(method, CMBytes)
	*p = plan{
		method: method,
		bytes:  bytes,
		lits:   h.Fetch(method, CMLiterals),
		code:   h.Bytes(bytes),
		ntemps: ntemps,
		slots:  slots,
	}
	// A doIt is materialized, run once and dropped: fusing it is a
	// template compile per request that nothing reuses.
	if in.jitOn && h.Fetch(method, CMSelector) == in.vm.Specials.SymDoIt {
		p.bad = true
	}
	if in.icPolicy != ICOff {
		p.icm = in.icFor(method, p.code)
		// A body fused before the plan was flushed or evicted comes back
		// with it: resurrection, not a compile (no event, no counter).
		p.jc = p.icm.jc
	}
	return p
}

// flushPlans empties the table by visiting only the slots filled since
// the last flush (five on average). Both alternatives were measured and
// rejected: an epoch stamp keeps dead icMethods and fused bodies
// reachable from stale entries (peak_rss_mb +11 to +20 % on macro_fast),
// and clearing the whole table runs once per interpreter per install
// (setup_s +42 to +52 % on the multi-interpreter workloads at 1024
// entries). Not a deopt: no event, no counter.
func (in *Interp) flushPlans() {
	for _, i := range in.planUsed {
		in.plans[i] = plan{}
	}
	in.planUsed = in.planUsed[:0]
	in.jfns = nil
}

// install loads the executing method's host-side registers from its
// plan, without counting a load. (Nothing reads in.bytes any more, but
// it is a root: the scavenger copies what the roots reach in root order,
// so dropping it would move objects and with them every virtual time.)
func (in *Interp) install(p *plan) {
	in.bytes = p.bytes
	in.lits = p.lits
	in.code = p.code
	in.icm = p.icm
}

// refreshCode re-installs the host-side caches of the executing method
// after a collection moved everything or an install reset the inline
// caches (the register roots were updated by the collector; the register
// window, the derived slices and the inline-cache pointer were not). Not
// a context load: the method keeps running interpreted until its next
// one. An idle interpreter re-plans the method it ran last all the same:
// with inline caches on that re-creates the method's icMethod, a root,
// and root order decides where the scavenger copies things — skipping it
// was tried and moved two virtual times in the gate.
func (in *Interp) refreshCode() {
	in.bindFrames()
	if in.method == object.Nil {
		return // never ran anything: code, lits and icm are still unset
	}
	in.install(in.planFor(in.method))
}

// enter is install for a context load — one of p's contexts becoming
// the running context (an activation, a return into it, a process
// switch back to it): with the msjit tier on, the load counts toward
// jit.CompileThreshold and a fused method resumes its fused body.
func (in *Interp) enter(p *plan) {
	in.install(p)
	if !in.jitOn {
		return
	}
	if p.jc == nil && !p.bad {
		p.count++
		if p.count >= jit.CompileThreshold {
			in.jitCompile(p)
		}
	}
	in.jfns = nil
	if p.jc != nil {
		in.jfns = p.jc.fns
	}
}
