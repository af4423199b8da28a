package interp

import (
	"mst/internal/object"
	"mst/internal/trace"
)

// Selector-level profiler plumbing. The interpreter's loadContext is the
// single chokepoint where the executing method changes (sends, returns,
// block activations, process switches all pass through it), so profSync
// runs there: it walks the live context chain host-side, renders each
// frame as a qualified "Class>>selector" name, and hands the stack to
// the trace.Profiler with the processor's busy-tick clock.
//
// Everything here observes without perturbing: the walk reads the heap
// (Fetch/Bytes only, no mutation, no IdentityHash — that would assign
// hash bits lazily), holds no oops across operations that could GC, and
// charges no virtual time. Name caches are keyed by oop and flushed
// before every scavenge because objects move.

// ensureNameCaches creates the oop-keyed name caches and registers
// their pre-scavenge flush exactly once; both the selector profiler and
// the allocation-site profiler render through them.
func (vm *VM) ensureNameCaches() {
	if vm.methodNames != nil {
		return
	}
	vm.methodNames = map[object.OOP]string{}
	vm.selectorNames = map[object.OOP]string{}
	vm.H.OnPreScavenge(func() {
		clear(vm.methodNames)
		clear(vm.selectorNames)
	})
}

// EnableProfiler attaches a selector profiler to the VM. Call after boot
// so image-build time is not charged; the per-processor busy baselines
// are primed from the current clocks.
func (vm *VM) EnableProfiler() {
	if vm.prof != nil {
		return
	}
	vm.prof = trace.NewProfiler(vm.M.NumProcs())
	vm.ensureNameCaches()
	for i, in := range vm.Interps {
		vm.prof.Prime(i, int64(in.p.Stats().Busy))
		in.profSync()
	}
}

// EnableAllocProfiler attaches an allocation-site profiler: every heap
// allocation from here on is attributed to the executing
// Class>>selector, and the scavenger follows each site's objects to
// derive survivor and tenure rates. Call after boot so image-build
// allocation is not attributed. Deterministic mode only (the core
// config layer validates): the site lookup reads the per-processor
// interpreter state mid-bytecode.
func (vm *VM) EnableAllocProfiler() *trace.AllocProfiler {
	if vm.allocProf != nil {
		return vm.allocProf
	}
	vm.ensureNameCaches()
	vm.allocProf = trace.NewAllocProfiler()
	vm.allocSiteIDs = map[object.OOP]int{}
	vm.H.OnPreScavenge(func() { clear(vm.allocSiteIDs) })
	vm.H.SetAllocProfiler(vm.allocProf, vm.allocSiteFor)
	return vm.allocProf
}

// AllocProfiler returns the attached allocation-site profiler, or nil.
func (vm *VM) AllocProfiler() *trace.AllocProfiler { return vm.allocProf }

// allocSiteFor resolves processor proc's current allocation site: the
// compiled method its interpreter is executing, interned by method oop
// (the id cache is flushed before every scavenge because oops move).
// Allocations with no executing method — evaluation setup, primitive
// scaffolding — fall to the "(vm)" site.
func (vm *VM) allocSiteFor(proc int) int {
	var method object.OOP
	if proc >= 0 && proc < len(vm.Interps) {
		method = vm.Interps[proc].method
	}
	if !method.IsPtr() || method == object.Nil {
		return vm.allocProf.SiteID("(vm)")
	}
	if id, ok := vm.allocSiteIDs[method]; ok {
		return id
	}
	id := vm.allocProf.SiteID(vm.methodName(method))
	vm.allocSiteIDs[method] = id
	return id
}

// Profiler returns the attached profiler, or nil.
func (vm *VM) Profiler() *trace.Profiler { return vm.prof }

// ProfilerFlush finalizes attribution at the processors' current busy
// clocks; call when the machine is parked, before reading the report.
func (vm *VM) ProfilerFlush() {
	if vm.prof == nil {
		return
	}
	busy := make([]int64, len(vm.Interps))
	for i, in := range vm.Interps {
		busy[i] = int64(in.p.Stats().Busy)
	}
	vm.prof.Flush(busy)
}

// selName returns the Go string of a selector symbol, cached by oop.
func (in *Interp) selName(sel object.OOP) string {
	vm := in.vm
	if vm.selectorNames == nil {
		return vm.SymbolName(sel)
	}
	if name, ok := vm.selectorNames[sel]; ok {
		return name
	}
	name := vm.SymbolName(sel)
	vm.selectorNames[sel] = name
	return name
}

// methodName renders a compiled method as "Class>>selector", cached by
// method oop.
func (vm *VM) methodName(method object.OOP) string {
	if name, ok := vm.methodNames[method]; ok {
		return name
	}
	h := vm.H
	name := "(unknown)"
	if method.IsPtr() && method != object.Nil {
		sel := h.Fetch(method, CMSelector)
		cls := h.Fetch(method, CMMethodClass)
		selName := "?"
		if sel != object.Nil && h.Header(sel).Format() == object.FmtBytes {
			selName = h.String(sel)
		}
		clsName := "?"
		if cls != object.Nil && cls.IsPtr() {
			if cn := h.Fetch(cls, ClsName); cn != object.Nil && h.Header(cn).Format() == object.FmtBytes {
				clsName = h.String(cn)
			}
		}
		name = clsName + ">>" + selName
	}
	vm.methodNames[method] = name
	return name
}

// profSync captures the current call chain and syncs the profiler.
// Frames are collected innermost-first by walking sender/caller links,
// then reversed to the outermost-first order Profiler.Sync expects.
func (in *Interp) profSync() {
	vm := in.vm
	h := vm.H
	frames := in.profFrames[:0]
	for ctx := in.ctx; ctx != object.Nil && ctx.IsPtr(); {
		if h.ClassOf(ctx) == vm.Specials.BlockContext {
			home := h.Fetch(ctx, BCtxHome)
			name := "[] in (unknown)"
			if home != object.Nil && home.IsPtr() {
				name = "[] in " + vm.methodName(h.Fetch(home, CtxMethod))
			}
			frames = append(frames, name)
			ctx = h.Fetch(ctx, BCtxCaller)
		} else {
			frames = append(frames, vm.methodName(h.Fetch(ctx, CtxMethod)))
			ctx = h.Fetch(ctx, CtxSender)
		}
	}
	for i, j := 0, len(frames)-1; i < j; i, j = i+1, j-1 {
		frames[i], frames[j] = frames[j], frames[i]
	}
	if in.jfns != nil && len(frames) > 0 {
		// Tier attribution: busy ticks accrued while the innermost
		// frame runs as compiled closures are tagged so the selector
		// profiler can split compiled vs interpreted time.
		frames[len(frames)-1] += jitFrameTag
	}
	in.profFrames = frames
	vm.prof.Sync(in.p.ID(), frames, int64(in.p.Stats().Busy))
}

// profIdle marks the processor idle (empty stack) in the profiler; the
// idle loop's own polling work accrues to the (idle) bucket.
func (in *Interp) profIdle() {
	in.vm.prof.Sync(in.p.ID(), nil, int64(in.p.Stats().Busy))
}
