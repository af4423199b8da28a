package interp

import (
	"strings"

	"mst/internal/bytecode"
	"mst/internal/compiler"
	"mst/internal/heap"
	"mst/internal/jit"
	"mst/internal/object"
	"mst/internal/trace"
)

// cacheSize is the method cache size (entries, power of two).
const cacheSize = 512

// mcEntry is one method-cache entry. Keys are raw oops, which is safe
// because every cache is flushed before each scavenge.
type mcEntry struct {
	selector object.OOP
	class    object.OOP
	method   object.OOP
	prim     int
}

// methodCache is one method cache: a processor's replica
// (CacheReplicated) or the one shared table (CacheSharedLocked). It is
// flushed at every method install and before every scavenge, yet few
// slots are filled in between: 4 over a boot's 545 flushes, about ten
// per flush in a macro pass. So used lists the slots filled since the
// last flush and a flush clears those alone, as flushPlans does; clearing
// all 512 entries of every replica was a quarter of a warm 5-processor
// boot's host time. A slot is listed when a fill finds it empty, so at
// most cacheSize slots are listed and the fixed array never allocates.
type methodCache struct {
	entries [cacheSize]mcEntry
	used    [cacheSize]uint16
	n       int // listed slots
}

// fill writes e into slot idx.
func (c *methodCache) fill(idx int, e mcEntry) {
	if c.entries[idx].selector == object.Invalid {
		c.used[c.n] = uint16(idx)
		c.n++
	}
	c.entries[idx] = e
}

// flush empties the cache; nil (no cache of this kind) is a no-op.
func (c *methodCache) flush() {
	if c == nil {
		return
	}
	for _, i := range c.used[:c.n] {
		c.entries[i] = mcEntry{}
	}
	c.n = 0
}

func cacheIndex(selector, class object.OOP) int {
	return int((uint64(selector)>>1 ^ uint64(class)>>3) & (cacheSize - 1))
}

// lookup finds (method, primitive) for selector starting at class,
// consulting the configured method cache. Reports ok=false on a miss
// all the way up the chain (doesNotUnderstand:).
func (in *Interp) lookup(class, selector object.OOP) (object.OOP, int, bool) {
	vm := in.vm

	var cache *methodCache
	locked := false
	if in.sharedLocked {
		// MS's first design: a shared cache behind a two-level lock
		// (probes take the read side; fills take the write side).
		vm.cacheLock.AcquireRead(in.p)
		locked = true
		cache = vm.sharedCache
		vm.sanAccess(in.p, "shared-method-cache")
	} else {
		cache = in.cache
	}
	idx := cacheIndex(selector, class)
	in.p.Advance(in.probeCost)
	if e := &cache.entries[idx]; e.selector == selector && e.class == class {
		m, prim := e.method, e.prim
		if locked {
			vm.cacheLock.ReleaseRead(in.p)
		}
		in.stats.CacheHits++
		in.rec.Emit(trace.KCacheHit, in.p.ID(), int64(in.p.Now()), 0, 0, "")
		return m, prim, true
	}
	if in.twoWay {
		// Extension (CacheWays=2): a second probe of the adjacent entry
		// turns many conflict misses into hits, at one extra probe cost.
		in.p.Advance(in.probeCost)
		if e := &cache.entries[idx^1]; e.selector == selector && e.class == class {
			m, prim := e.method, e.prim
			if locked {
				vm.cacheLock.ReleaseRead(in.p)
			}
			in.stats.CacheHits++
			in.rec.Emit(trace.KCacheHit, in.p.ID(), int64(in.p.Now()), 0, 0, "")
			return m, prim, true
		}
	}
	if locked {
		vm.cacheLock.ReleaseRead(in.p)
	}
	in.stats.CacheMisses++
	if in.rec != nil {
		in.rec.Emit(trace.KCacheMiss, in.p.ID(), int64(in.p.Now()), 0, 0, in.selName(selector))
	}

	method, ok := in.walkLookup(class, selector)
	if !ok {
		return object.Nil, 0, false
	}
	prim := headerPrim(vm.H.Fetch(method, CMHeader))

	if in.twoWay && cache.entries[idx].selector != object.Invalid && cache.entries[idx^1].selector == object.Invalid {
		idx ^= 1 // fill the empty way instead of evicting
	}
	if locked {
		vm.cacheLock.AcquireWrite(in.p)
		vm.sanAccess(in.p, "shared-method-cache")
		cache.fill(idx, mcEntry{selector, class, method, prim})
		vm.cacheLock.ReleaseWrite(in.p)
	} else {
		cache.fill(idx, mcEntry{selector, class, method, prim})
	}
	return method, prim, true
}

// walkLookup probes method dictionaries up the superclass chain.
func (in *Interp) walkLookup(class, selector object.OOP) (object.OOP, bool) {
	vm := in.vm
	h := vm.H
	c := in.costs
	for cls := class; cls != object.Nil; cls = h.Fetch(cls, ClsSuperclass) {
		in.p.Advance(c.LookupPerDict)
		in.stats.DictProbes++
		dict := h.Fetch(cls, ClsMethodDict)
		if m, ok := vm.methodDictLookup(dict, selector); ok {
			return m, true
		}
	}
	return object.Nil, false
}

// methodDictLookup probes one open-addressed method dictionary.
func (vm *VM) methodDictLookup(dict, selector object.OOP) (object.OOP, bool) {
	h := vm.H
	keys := h.Fetch(dict, MDKeys)
	if j := vm.methodDictSlot(keys, selector); j >= 0 && h.Fetch(keys, j) == selector {
		return h.Fetch(h.Fetch(dict, MDValues), j), true
	}
	return object.Nil, false
}

// send performs a full message send: inline-cache probe (when enabled),
// then lookup through the method cache, then primitive or method
// activation; on total lookup failure it reships the message as
// doesNotUnderstand:. sitePC is the pc of the send opcode within the
// current method (-1 for sends with no site: perform:, DNU reship),
// which identifies the send site for the inline-cache layer.
func (in *Interp) send(selector object.OOP, nargs int, super bool, sitePC int) {
	var site *icSite
	if in.icPolicy != ICOff && sitePC >= 0 && in.icm != nil {
		if si := in.icm.siteIndex(sitePC); si >= 0 {
			site = &in.icm.sites[si]
		}
	}
	vm := in.vm
	in.stats.Sends++
	if in.rec != nil {
		in.rec.Emit(trace.KSend, in.p.ID(), int64(in.p.Now()), int64(nargs), 0, in.selName(selector))
	}
	in.p.Advance(in.costs.SendExtra)

	receiver := in.stackAt(nargs)
	var class object.OOP
	if super {
		// Super sends start above the method's defining class.
		mc := vm.H.Fetch(in.method, CMMethodClass)
		class = vm.H.Fetch(mc, ClsSuperclass)
	} else {
		class = vm.ClassOf(receiver)
	}

	var method object.OOP
	var prim int
	hit := false
	var fillSite *icSite
	// Megamorphic sites were retired (Hölzle): the send goes straight
	// to the method cache, paying no probe.
	if site != nil && !site.mega {
		in.p.Advance(in.costs.ICProbe)
		if m, p, ok := site.probe(class); ok {
			in.stats.ICHits++
			in.rec.Emit(trace.KICHit, in.p.ID(), int64(in.p.Now()), 0, 0, "")
			method, prim, hit = m, p, true
		} else {
			in.stats.ICMisses++
			if in.rec != nil {
				in.rec.Emit(trace.KICMiss, in.p.ID(), int64(in.p.Now()), 0, 0, in.selName(selector))
			}
			fillSite = site
		}
	}
	if !hit {
		var ok bool
		method, prim, ok = in.lookup(class, selector)
		if !ok {
			in.sendDNU(selector, nargs)
			return
		}
		if fillSite != nil {
			in.icFill(fillSite, class, method, prim)
		}
	}
	if prim > 0 {
		in.stats.Primitives++
		in.rec.Emit(trace.KPrimitive, in.p.ID(), int64(in.p.Now()), int64(prim), 0, "")
		in.p.Advance(in.costs.PrimBase)
		if in.callPrimitive(prim, nargs) {
			return
		}
		in.stats.PrimFailures++
	}
	in.activateMethod(method, nargs)
}

// sendDNU converts the failed message into doesNotUnderstand: aMessage.
func (in *Interp) sendDNU(selector object.OOP, nargs int) {
	vm := in.vm
	in.stats.DNUs++
	if in.jfns != nil {
		// A doesNotUnderstand: reship is an uncommon path the msjit
		// tier refuses to run compiled: drop the compiled body and let
		// the interpreter carry the reship (clean bytecode boundary —
		// step() already advanced in.pc past the send).
		in.jitDemote(in.method, jit.DeoptDNU)
	}
	// Logged though a DNU may be handled deliberately: when it is not,
	// it is the cause the failed evaluation reports.
	report := "doesNotUnderstand: #" + vm.SymbolName(selector) + " sent to " + vm.DescribeOOP(in.stackAt(nargs))
	vm.hostMu.Lock()
	vm.logError(report)
	vm.hostMu.Unlock()
	hs := vm.H.Handles(in.p)
	defer hs.Close()
	selH := hs.Add(selector)

	// Build the Message object (allocations may scavenge; arguments
	// are read from the context stack afterwards, which is safe).
	args := vm.NewArray(in.p, nargs)
	argsH := hs.Add(args)
	for i := 0; i < nargs; i++ {
		vm.H.Store(in.p, argsH.Get(), i, in.stackAt(nargs-1-i))
	}
	msg := vm.H.Allocate(in.p, vm.Specials.Message, MessageInstSize, object.FmtPointers)
	vm.H.Store(in.p, msg, MsgSelector, selH.Get())
	vm.H.Store(in.p, msg, MsgArgs, argsH.Get())

	// Replace the arguments with the message and re-send.
	in.popN(nargs)
	in.push(msg)

	receiver := in.stackAt(1)
	class := vm.ClassOf(receiver)
	method, prim, ok := in.lookup(class, vm.Specials.SymDNU)
	if !ok {
		vm.vmError("recursive doesNotUnderstand: for %s on %s",
			vm.SymbolName(selH.Get()), vm.DescribeOOP(receiver))
		in.terminateCurrentProcess()
		return
	}
	if prim > 0 && in.callPrimitive(prim, 1) {
		return
	}
	in.activateMethod(method, 1)
}

// activateMethod builds (or recycles) a context for method and makes it
// active: the one activation, for every engine under either FreeContexts
// policy. The receiver and nargs arguments are on the caller's stack.
func (in *Interp) activateMethod(method object.OOP, nargs int) {
	vm := in.vm
	h := vm.H
	p := in.planFor(method)
	slots := p.slots
	if slots > LargeCtxSlots {
		vm.vmError("method %s needs %d context slots", vm.DescribeOOP(method), slots)
		in.terminateCurrentProcess()
		return
	}
	// A recycled context may hold stale values only below its watermark
	// (recycleContext); a fresh one has its whole slot area nilled.
	dirty := slots
	nc := in.popFreeContext(slots > SmallCtxSlots)
	if nc != object.Invalid {
		if wm := int(h.Fetch(nc, CtxSP).Int()); wm < dirty {
			dirty = wm
		}
	} else {
		hs := h.Handles(in.p)
		mh := hs.Add(method)
		in.stats.ContextsAlloc++
		in.rec.Emit(trace.KCtxAlloc, in.p.ID(), int64(in.p.Now()), 0, 0, "")
		nc = h.Allocate(in.p, vm.Specials.MethodContext, CtxFixed+slots, object.FmtPointers) // MAY GC
		method = mh.Get()
		hs.Close()
		p = in.planFor(method) // a scavenge moved the method and flushed the table
	}
	receiver := in.initContext(nc, method, nargs, p.ntemps, slots, dirty)

	// The registers, straight from the plan — what loading nc would read
	// back from the heap: a fresh method context at pc 0, sp at the temps.
	in.ctx = nc
	in.isBlock = false
	in.home = nc
	in.method = method
	in.receiver = receiver
	in.enter(p)
	in.pc = 0
	in.sp = p.ntemps
	in.slotCap = slots
	in.bindFrames()
	if vm.prof != nil {
		in.profSync()
	}
}

// initContext fills the fresh or recycled method context nc for an
// activation of method, whose receiver and nargs arguments are on the
// caller's stack, pops them, and links nc to the caller; it returns the
// receiver. Everything is read from the caller's stack here, after the
// allocation, via the (GC-updated) ctx root. dirty bounds the slots that
// may hold a non-nil value: arguments go into the first temps and
// [nargs, dirty) is nilled, because the scavenger scans the whole slot
// area.
func (in *Interp) initContext(nc, method object.OOP, nargs, ntemps, slots, dirty int) object.OOP {
	var f heap.Frame // over all of nc, fixed fields included
	f.Bind(in.vm.H, nc, 0, CtxFixed+slots)
	f.Put(CtxPC, object.FromInt(0))
	f.Put(CtxSP, object.FromInt(int64(ntemps)))
	f.Set(in.p, CtxMethod, method)
	receiver := in.stackAt(nargs)
	f.Set(in.p, CtxReceiver, receiver)
	for i := 0; i < nargs; i++ {
		f.Set(in.p, CtxFixed+i, in.stackAt(nargs-1-i))
	}
	f.Clear(CtxFixed+nargs, CtxFixed+dirty)
	// Pop receiver+args and link.
	in.popN(nargs + 1)
	in.flushRegisters()
	f.Set(in.p, CtxSender, in.ctx)
	return receiver
}

// returnValue implements ^-returns. For a block context this is a
// non-local return from the home method's sender.
func (in *Interp) returnValue(val object.OOP, methodReturn bool) {
	vm := in.vm
	h := vm.H

	var target object.OOP
	if in.isBlock && methodReturn {
		// Non-local return: leave via the home context's sender.
		home := in.home
		target = h.Fetch(home, CtxSender)
		// The home method context is now dead.
		h.StoreNoCheck(home, CtxSender, object.Nil)
	} else {
		target = h.Fetch(in.ctx, CtxSender)
		in.recycleContext(in.ctx)
	}

	if target == object.Nil {
		in.processCompleted(val)
		return
	}
	in.loadContext(target)
	in.push(val)
}

// blockReturn returns the top of stack from a block to its caller.
func (in *Interp) blockReturn() {
	val := in.pop()
	target := in.vm.H.Fetch(in.ctx, BCtxCaller)
	if target == object.Nil {
		in.processCompleted(val)
		return
	}
	in.loadContext(target)
	in.push(val)
}

// recycleContext returns a clean method context to the free list
// (paper §3.2: replication of the free context list removed the
// serialization bottleneck).
func (in *Interp) recycleContext(ctx object.OOP) {
	vm := in.vm
	if in.isBlock {
		return
	}
	hdr := vm.H.Fetch(in.method, CMHeader)
	if !headerClean(hdr) {
		// The context may have escaped through a block or
		// thisContext; let the scavenger reclaim it.
		return
	}
	// The nil watermark for activateMethod: the pop discipline keeps every
	// slot at or above sp nil, so the dead frame's sp tells the next
	// activation how much of the slot area still needs nil-filling
	// ([nargs, sp) — the rest is already clean). The frame is dead and
	// unreachable, so the stash is invisible to the scavenger.
	vm.H.StoreNoCheck(ctx, CtxSP, object.FromInt(int64(in.sp)))
	list := in.freeContexts(in.slotCap > SmallCtxSlots) // ctx is the active context
	const freeListMax = 64
	if vm.Cfg.FreeContexts == FreeCtxSharedLocked {
		vm.freeLock.Acquire(in.p)
		vm.sanAccess(in.p, "shared-free-contexts")
		if len(*list) < freeListMax {
			*list = append(*list, ctx)
			in.rec.Emit(trace.KCtxRecycle, in.p.ID(), int64(in.p.Now()), 0, 0, "")
		}
		vm.freeLock.Release(in.p)
		return
	}
	if len(*list) < freeListMax {
		*list = append(*list, ctx)
	}
	in.stats.ContextsRecycled++
	in.rec.Emit(trace.KCtxRecycle, in.p.ID(), int64(in.p.Now()), 0, 0, "")
}

// freeContexts returns the free list of one context size class under the
// configured policy. With FreeCtxSharedLocked the caller takes
// vm.freeLock around any use of it.
func (in *Interp) freeContexts(large bool) *[]object.OOP {
	which := 0
	if large {
		which = 1
	}
	if in.vm.Cfg.FreeContexts == FreeCtxSharedLocked {
		return &in.vm.sharedFreeCtx[which]
	}
	return &in.free[which]
}

// popFreeContext takes a recycled method context of the given size class
// off the free list, or returns Invalid when the list is empty. It never
// allocates, so it cannot GC.
func (in *Interp) popFreeContext(large bool) object.OOP {
	vm := in.vm
	list := in.freeContexts(large)
	shared := vm.Cfg.FreeContexts == FreeCtxSharedLocked
	if shared {
		vm.freeLock.Acquire(in.p)
		vm.sanAccess(in.p, "shared-free-contexts")
	}
	ctx := object.Invalid
	if n := len(*list); n > 0 {
		ctx = (*list)[n-1]
		*list = (*list)[:n-1]
	}
	if shared {
		vm.freeLock.Release(in.p)
	}
	if ctx != object.Invalid {
		in.p.Advance(in.costs.FreeListPop)
	}
	return ctx
}

// specialSend executes a special-selector send, with inline fast paths
// for the common cases; otherwise it falls back to a normal send of the
// pre-interned selector. sitePC is the pc of the send opcode.
func (in *Interp) specialSend(op bytecode.Op, sitePC int) {
	if in.specialFast(op) {
		return
	}
	// Fast path failed: a real send of the pre-interned selector.
	in.send(in.vm.specialSelectors[op-bytecode.FirstSpecialSend],
		bytecode.Special(op).NumArgs, false, sitePC)
}

// specialFast attempts the inline fast path for a special-selector
// send. It reports whether the send was fully handled; otherwise the
// caller falls back to a real send.
func (in *Interp) specialFast(op bytecode.Op) bool {
	vm := in.vm
	h := vm.H

	switch op {
	case bytecode.OpSendAdd, bytecode.OpSendSub, bytecode.OpSendMul,
		bytecode.OpSendIntDiv, bytecode.OpSendMod,
		bytecode.OpSendBitAnd, bytecode.OpSendBitOr, bytecode.OpSendBitXor,
		bytecode.OpSendBitShift:
		a := in.stackAt(1)
		b := in.stackAt(0)
		if a.IsInt() && b.IsInt() {
			if r, ok := intArith(op, a.Int(), b.Int()); ok {
				in.popN(2)
				in.push(r)
				return true
			}
		}
	case bytecode.OpSendLT, bytecode.OpSendGT, bytecode.OpSendLE,
		bytecode.OpSendGE, bytecode.OpSendEq, bytecode.OpSendNE:
		a := in.stackAt(1)
		b := in.stackAt(0)
		if a.IsInt() && b.IsInt() {
			in.popN(2)
			in.push(object.FromBool(intCompare(op, a.Int(), b.Int())))
			return true
		}
	case bytecode.OpSendIdent:
		b := in.pop()
		a := in.pop()
		in.push(object.FromBool(a == b))
		return true
	case bytecode.OpSendNotIdent:
		b := in.pop()
		a := in.pop()
		in.push(object.FromBool(a != b))
		return true
	case bytecode.OpSendClass:
		v := in.pop()
		in.push(vm.ClassOf(v))
		return true
	case bytecode.OpSendIsNil:
		v := in.pop()
		in.push(object.FromBool(v == object.Nil))
		return true
	case bytecode.OpSendNotNil:
		v := in.pop()
		in.push(object.FromBool(v != object.Nil))
		return true
	case bytecode.OpSendNot:
		v := in.stackAt(0)
		if v == object.True {
			in.setStackAt(0, object.False)
			return true
		}
		if v == object.False {
			in.setStackAt(0, object.True)
			return true
		}
	case bytecode.OpSendAt:
		recv := in.stackAt(1)
		idx := in.stackAt(0)
		if v, ok := in.basicAt(recv, idx); ok {
			in.popN(2)
			in.push(v)
			return true
		}
	case bytecode.OpSendAtPut:
		recv := in.stackAt(2)
		idx := in.stackAt(1)
		val := in.stackAt(0)
		if in.basicAtPut(recv, idx, val) {
			in.popN(3)
			in.push(val)
			return true
		}
	case bytecode.OpSendSize:
		recv := in.stackAt(0)
		if n, ok := in.basicSize(recv); ok {
			in.setStackAt(0, object.FromInt(int64(n)))
			return true
		}
	case bytecode.OpSendValue:
		recv := in.stackAt(0)
		if recv.IsPtr() && recv != object.Nil && h.ClassOf(recv) == vm.Specials.BlockContext {
			if in.blockValue(recv, 0) {
				return true
			}
		}
	case bytecode.OpSendValue1:
		recv := in.stackAt(1)
		if recv.IsPtr() && recv != object.Nil && h.ClassOf(recv) == vm.Specials.BlockContext {
			if in.blockValue(recv, 1) {
				return true
			}
		}
	}
	return false
}

func intArith(op bytecode.Op, a, b int64) (object.OOP, bool) {
	switch op {
	case bytecode.OpSendAdd:
		r := a + b
		if r > object.MaxSmallInt || r < object.MinSmallInt {
			return 0, false
		}
		return object.FromInt(r), true
	case bytecode.OpSendSub:
		r := a - b
		if r > object.MaxSmallInt || r < object.MinSmallInt {
			return 0, false
		}
		return object.FromInt(r), true
	case bytecode.OpSendMul:
		r := a * b
		if a != 0 && (r/a != b || r > object.MaxSmallInt || r < object.MinSmallInt) {
			return 0, false // overflow
		}
		return object.FromInt(r), true
	case bytecode.OpSendIntDiv:
		if b == 0 || a == object.MinSmallInt && b == -1 {
			return 0, false // the one quotient past MaxSmallInt
		}
		return object.FromInt(floorDiv(a, b)), true
	case bytecode.OpSendMod:
		if b == 0 {
			return 0, false
		}
		return object.FromInt(a - floorDiv(a, b)*b), true
	case bytecode.OpSendBitAnd:
		return object.FromInt(a & b), true
	case bytecode.OpSendBitOr:
		return object.FromInt(a | b), true
	case bytecode.OpSendBitXor:
		return object.FromInt(a ^ b), true
	case bytecode.OpSendBitShift:
		if b >= 0 {
			if b > 60 {
				return 0, false
			}
			r := a << uint(b)
			if r>>uint(b) != a || r > object.MaxSmallInt || r < object.MinSmallInt {
				return 0, false
			}
			return object.FromInt(r), true
		}
		if b < -63 {
			b = -63
		}
		return object.FromInt(a >> uint(-b)), true
	}
	return 0, false
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func intCompare(op bytecode.Op, a, b int64) bool {
	switch op {
	case bytecode.OpSendLT:
		return a < b
	case bytecode.OpSendGT:
		return a > b
	case bytecode.OpSendLE:
		return a <= b
	case bytecode.OpSendGE:
		return a >= b
	case bytecode.OpSendEq:
		return a == b
	case bytecode.OpSendNE:
		return a != b
	}
	return false
}

// basicAt implements 1-based indexed access for indexable objects;
// ok=false falls back to a full send (user-defined at:).
func (in *Interp) basicAt(recv, idx object.OOP) (object.OOP, bool) {
	vm := in.vm
	h := vm.H
	if !idx.IsInt() || !recv.IsPtr() || recv == object.Nil {
		return 0, false
	}
	i := int(idx.Int())
	cls := h.ClassOf(recv)
	instSize, kind := DecodeFormat(h.Fetch(cls, ClsFormat))
	switch kind {
	case KindIdxPointers:
		n := h.FieldCount(recv) - instSize
		if i < 1 || i > n {
			return 0, false
		}
		return h.Fetch(recv, instSize+i-1), true
	case KindIdxBytes:
		if i < 1 || i > h.ByteLen(recv) {
			return 0, false
		}
		return object.FromInt(int64(h.FetchByte(recv, i-1))), true
	case KindIdxChars:
		if i < 1 || i > h.ByteLen(recv) {
			return 0, false
		}
		return vm.CharFor(in.p, rune(h.FetchByte(recv, i-1))), true
	case KindIdxWords:
		n := h.FieldCount(recv)
		if i < 1 || i > n {
			return 0, false
		}
		w := h.FetchWord(recv, i-1)
		if w > uint64(object.MaxSmallInt) {
			return 0, false
		}
		return object.FromInt(int64(w)), true
	}
	return 0, false
}

// basicAtPut implements 1-based indexed store.
func (in *Interp) basicAtPut(recv, idx, val object.OOP) bool {
	vm := in.vm
	h := vm.H
	if !idx.IsInt() || !recv.IsPtr() || recv == object.Nil {
		return false
	}
	i := int(idx.Int())
	cls := h.ClassOf(recv)
	instSize, kind := DecodeFormat(h.Fetch(cls, ClsFormat))
	switch kind {
	case KindIdxPointers:
		n := h.FieldCount(recv) - instSize
		if i < 1 || i > n {
			return false
		}
		h.Store(in.p, recv, instSize+i-1, val)
		return true
	case KindIdxBytes:
		if i < 1 || i > h.ByteLen(recv) || !val.IsInt() {
			return false
		}
		v := val.Int()
		if v < 0 || v > 255 {
			return false
		}
		h.StoreByte(recv, i-1, byte(v))
		return true
	case KindIdxChars:
		if i < 1 || i > h.ByteLen(recv) {
			return false
		}
		if val.IsInt() {
			return false
		}
		if h.ClassOf(val) != vm.Specials.Character {
			return false
		}
		r := vm.CharValueOf(val)
		if r < 0 || r > 255 {
			return false
		}
		h.StoreByte(recv, i-1, byte(r))
		return true
	case KindIdxWords:
		n := h.FieldCount(recv)
		if i < 1 || i > n || !val.IsInt() || val.Int() < 0 {
			return false
		}
		h.StoreWord(recv, i-1, uint64(val.Int()))
		return true
	}
	return false
}

// basicSize returns the indexable size of recv.
func (in *Interp) basicSize(recv object.OOP) (int, bool) {
	vm := in.vm
	h := vm.H
	if !recv.IsPtr() || recv == object.Nil {
		return 0, false
	}
	cls := h.ClassOf(recv)
	instSize, kind := DecodeFormat(h.Fetch(cls, ClsFormat))
	switch kind {
	case KindIdxPointers:
		return h.FieldCount(recv) - instSize, true
	case KindIdxBytes, KindIdxChars:
		return h.ByteLen(recv), true
	case KindIdxWords:
		return h.FieldCount(recv), true
	}
	return 0, false
}

// blockValue activates a block with nargs arguments on the stack (the
// block itself sits below them). Reports false when the arity is wrong
// (the send then falls back to BlockContext>>value..., which errors).
func (in *Interp) blockValue(blk object.OOP, nargs int) bool {
	vm := in.vm
	h := vm.H
	info := h.Fetch(blk, BCtxInfo).Int()
	wantArgs := int(info & 0xFF)
	firstArg := int(info >> 8 & 0xFF)
	if wantArgs != nargs {
		return false
	}
	// Block arguments live in the home context's temporaries.
	var args heap.Frame
	args.Bind(h, h.Fetch(blk, BCtxHome), CtxFixed+firstArg, nargs)
	for i := 0; i < nargs; i++ {
		args.Set(in.p, i, in.stackAt(nargs-1-i))
	}
	in.popN(nargs + 1)
	in.flushRegisters()
	h.Store(in.p, blk, BCtxCaller, in.ctx)
	h.StoreNoCheck(blk, BCtxPC, h.Fetch(blk, BCtxInitialPC))
	h.StoreNoCheck(blk, BCtxSP, object.FromInt(0))
	in.loadContext(blk)
	in.p.Advance(in.costs.SendExtra)
	return true
}

// selectorArity answers how many arguments the selector sel takes,
// reading its bytes in place: a keyword selector one per colon, a binary
// selector 1, a unary selector 0. The perform primitives fail, as the
// Blue Book's do, when the arguments supplied are not that many.
func (in *Interp) selectorArity(sel object.OOP) int {
	h := in.vm.H
	colons := 0
	for i := range h.ByteLen(sel) {
		switch c := h.FetchByte(sel, i); {
		case c == ':':
			colons++
		case i == 0 && strings.IndexByte(compiler.BinaryChars, c) >= 0:
			return 1
		}
	}
	return colons
}
