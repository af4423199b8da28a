package interp

import (
	"mst/internal/object"
)

// Helpers and the longer primitive bodies.

func (in *Interp) isFloat(o object.OOP) bool {
	return o.IsPtr() && o != object.Nil && in.vm.H.ClassOf(o) == in.vm.Specials.Float
}

func (in *Interp) isBlockOOP(o object.OOP) bool {
	return o.IsPtr() && o != object.Nil && in.vm.H.ClassOf(o) == in.vm.Specials.BlockContext
}

// isStringy accepts Strings, Symbols, and their subclasses (byte
// objects whose class kind is characters).
func (in *Interp) isStringy(o object.OOP) bool {
	if !o.IsPtr() || o == object.Nil {
		return false
	}
	cls := in.vm.H.ClassOf(o)
	_, kind := DecodeFormat(in.vm.H.Fetch(cls, ClsFormat))
	return kind == KindIdxChars
}

// primShallowCopy copies the receiver's fields into a fresh instance.
func (in *Interp) primShallowCopy(nargs int, recv object.OOP) bool {
	vm := in.vm
	h := vm.H
	if recv.IsInt() || recv == object.Nil || recv == object.True || recv == object.False {
		return in.primReturn(nargs, recv)
	}
	hd := h.Header(recv)
	cls := h.ClassOf(recv)
	var cp object.OOP
	switch hd.Format() {
	case object.FmtPointers:
		cp = vm.allocFields(in.p, cls, hd.FieldCount())
		recv = in.stackAt(nargs) // re-read after allocation
		for i := 0; i < h.Header(recv).FieldCount(); i++ {
			h.Store(in.p, cp, i, h.Fetch(recv, i))
		}
	case object.FmtBytes:
		cp = h.Allocate(in.p, cls, hd.ByteLen(), object.FmtBytes)
		recv = in.stackAt(nargs)
		h.WriteBytes(cp, h.Bytes(recv))
	case object.FmtWords:
		cp = h.Allocate(in.p, cls, hd.FieldCount(), object.FmtWords)
		recv = in.stackAt(nargs)
		for i := 0; i < h.Header(recv).FieldCount(); i++ {
			h.StoreWord(cp, i, h.FetchWord(recv, i))
		}
	}
	return in.primReturn(nargs, cp)
}

// primValueWithArgs implements valueWithArguments: anArray.
func (in *Interp) primValueWithArgs(nargs int, recv object.OOP) bool {
	vm := in.vm
	h := vm.H
	if nargs != 1 || !in.isBlockOOP(recv) {
		return false
	}
	args := in.stackAt(0)
	if args.IsInt() || args == object.Nil || h.Header(args).Format() != object.FmtPointers {
		return false
	}
	n := h.FieldCount(args)
	info := h.Fetch(recv, BCtxInfo).Int()
	if int(info&0xFF) != n {
		return false
	}
	// Reshape the stack from [block, array] to [block, a1..an].
	in.popN(1)
	for i := 0; i < n; i++ {
		in.push(h.Fetch(args, i))
	}
	return in.blockValue(in.stackAt(n), n)
}

// primPerform implements perform:, perform:with:, perform:with:with:.
// The stack [recv, sel, a1..ak] is reshaped to [recv, a1..ak] and the
// message is re-dispatched; it fails unless k is the selector's arity.
func (in *Interp) primPerform(nargs int) bool {
	sel := in.stackAt(nargs - 1)
	k := nargs - 1 // real argument count
	if !in.isStringy(sel) || in.selectorArity(sel) != k {
		return false
	}
	// Shift arguments down over the selector.
	for i := 0; i < k; i++ {
		in.setStackAt(nargs-1-i, in.stackAt(k-1-i))
	}
	in.popN(1)
	in.send(sel, k, false, -1)
	return true
}

// primPerformWithArgs implements perform:withArguments:.
func (in *Interp) primPerformWithArgs(nargs int) bool {
	vm := in.vm
	h := vm.H
	if nargs != 2 {
		return false
	}
	sel := in.stackAt(1)
	args := in.stackAt(0)
	if !in.isStringy(sel) || args.IsInt() || args == object.Nil ||
		h.Header(args).Format() != object.FmtPointers || in.selectorArity(sel) != h.FieldCount(args) {
		return false
	}
	n := h.FieldCount(args)
	in.popN(2)
	for i := 0; i < n; i++ {
		in.push(h.Fetch(args, i))
	}
	in.send(sel, n, false, -1)
	return true
}

// primNewProcess implements BlockContext>>newProcess: wrap the block in
// a suspended Process ready to run from its initial pc.
func (in *Interp) primNewProcess(nargs int, recv object.OOP) bool {
	vm := in.vm
	h := vm.H
	if !in.isBlockOOP(recv) || nargs != 0 {
		return false
	}
	info := h.Fetch(recv, BCtxInfo).Int()
	if info&0xFF != 0 {
		return false // only zero-argument blocks fork
	}
	pri := int64(UserPriority)
	if in.proc != object.Nil {
		pri = h.Fetch(in.proc, PrPriority).Int()
	}

	hs := h.Handles(in.p)
	defer hs.Close()
	blkH := hs.Add(recv)
	proc := vm.allocFields(in.p, vm.Specials.Process, ProcessInstSize)
	blk := blkH.Get()
	h.StoreNoCheck(blk, BCtxCaller, object.Nil)
	h.StoreNoCheck(blk, BCtxPC, h.Fetch(blk, BCtxInitialPC))
	h.StoreNoCheck(blk, BCtxSP, object.FromInt(0))
	h.Store(in.p, proc, PrSuspendedContext, blk)
	h.StoreNoCheck(proc, PrPriority, object.FromInt(pri))
	h.StoreNoCheck(proc, PrState, object.FromInt(StateSuspended))
	return in.primReturn(nargs, proc)
}

// primSetPriority implements Process>>priority: newPriority.
func (in *Interp) primSetPriority(nargs int, recv object.OOP) bool {
	vm := in.vm
	h := vm.H
	arg := in.stackAt(0)
	if vm.ClassOf(recv) != vm.Specials.Process || !arg.IsInt() {
		return false
	}
	pri := arg.Int()
	if pri < 1 || pri > NumPriorities {
		return false
	}
	vm.schedLock.Acquire(in.p)
	st := h.Fetch(recv, PrState).Int()
	if st == StateReady || st == StateRunning {
		// Move between ready lists.
		vm.unlinkFromCurrentList(in.p, recv)
		h.StoreNoCheck(recv, PrPriority, object.FromInt(pri))
		vm.listAppend(in.p, vm.readyList(int(pri)), recv)
	} else {
		h.StoreNoCheck(recv, PrPriority, object.FromInt(pri))
	}
	// Lowering the running Process below a ready one reschedules, as
	// any scheduling-state change does in Smalltalk-80.
	if recv == in.proc {
		if next := vm.findReady(in.p); next != object.Nil &&
			h.Fetch(next, PrPriority).Int() > pri {
			in.primReturn(nargs, recv)
			in.parkCurrent(StateReady)
			h.StoreNoCheck(next, PrState, object.FromInt(StateRunning))
			in.switchToProcess(next)
			vm.schedLock.Release(in.p)
			return true
		}
	}
	vm.schedLock.Release(in.p)
	return in.primReturn(nargs, recv)
}

// primReplaceFrom implements replaceFrom:to:with:startingAt: for byte
// and pointer indexables of matching layout.
func (in *Interp) primReplaceFrom(nargs int, recv object.OOP) bool {
	vm := in.vm
	h := vm.H
	if nargs != 4 || recv.IsInt() || recv == object.Nil {
		return false
	}
	start := in.stackAt(3)
	stop := in.stackAt(2)
	src := in.stackAt(1)
	srcStart := in.stackAt(0)
	if !start.IsInt() || !stop.IsInt() || !srcStart.IsInt() ||
		src.IsInt() || src == object.Nil {
		return false
	}
	a, b, sa := int(start.Int()), int(stop.Int()), int(srcStart.Int())
	if b < a {
		return in.primReturn(nargs, recv)
	}
	dstHdr := h.Header(recv)
	srcHdr := h.Header(src)
	if dstHdr.Format() != srcHdr.Format() {
		return false
	}
	switch dstHdr.Format() {
	case object.FmtBytes:
		if a < 1 || b > dstHdr.ByteLen() || sa < 1 || sa+(b-a) > srcHdr.ByteLen() {
			return false
		}
		if recv == src && sa < a {
			for i := b - a; i >= 0; i-- {
				h.StoreByte(recv, a-1+i, h.FetchByte(src, sa-1+i))
			}
		} else {
			for i := 0; i <= b-a; i++ {
				h.StoreByte(recv, a-1+i, h.FetchByte(src, sa-1+i))
			}
		}
	case object.FmtPointers:
		dInst, dKind := DecodeFormat(h.Fetch(vm.ClassOf(recv), ClsFormat))
		sInst, sKind := DecodeFormat(h.Fetch(vm.ClassOf(src), ClsFormat))
		if dKind != KindIdxPointers || sKind != KindIdxPointers {
			return false
		}
		dn := h.FieldCount(recv) - dInst
		sn := h.FieldCount(src) - sInst
		if a < 1 || b > dn || sa < 1 || sa+(b-a) > sn {
			return false
		}
		if recv == src && sa < a {
			for i := b - a; i >= 0; i-- {
				h.Store(in.p, recv, dInst+a-2+i+1, h.Fetch(src, sInst+sa-2+i+1))
			}
		} else {
			for i := 0; i <= b-a; i++ {
				h.Store(in.p, recv, dInst+a-1+i, h.Fetch(src, sInst+sa-1+i))
			}
		}
	default:
		return false
	}
	return in.primReturn(nargs, recv)
}

// primCompile implements Behavior>>compile:classified: through the Go
// compiler (the paper's compiler is Smalltalk code; see DESIGN.md §3).
func (in *Interp) primCompile(nargs int, recv object.OOP) bool {
	vm := in.vm
	if nargs != 2 || recv.IsInt() {
		return false
	}
	src := in.stackAt(1)
	cat := in.stackAt(0)
	if !in.isStringy(src) || !in.isStringy(cat) {
		return false
	}
	in.env.class = recv
	m, err := methods.compileBytes(in.bytesOf(src), &in.env)
	if err != nil {
		vm.hostMu.Lock()
		vm.logError("compile: " + err.Error())
		vm.hostMu.Unlock()
		return false
	}
	return in.primReturn(nargs, vm.installMethod(in.p, recv, m, in.stringOf(cat)))
}

// primRemoveSelector rebuilds the method dictionary without the
// selector (open addressing needs a rehash on removal).
func (in *Interp) primRemoveSelector(nargs int, recv object.OOP) bool {
	vm := in.vm
	h := vm.H
	sel := in.stackAt(0)
	if recv.IsInt() || !in.isStringy(sel) {
		return false
	}
	keys := h.Fetch(h.Fetch(recv, ClsMethodDict), MDKeys)
	j := vm.methodDictSlot(keys, sel)
	if j < 0 || h.Fetch(keys, j) != sel {
		return false
	}
	recv = vm.rehashMethodDict(in.p, recv, h.FieldCount(keys), j)
	vm.flushAllCaches()
	return in.primReturn(nargs, recv)
}

// statAt exposes VM statistics to the image (primitive 92). In
// deterministic mode the interpreter counters are summed across all
// interpreters (the historical — and golden — behaviour). In parallel
// host mode the other interpreters are mutating their counters
// concurrently, so the primitive reports the asking interpreter's own
// replica instead; the heap counters are safe either way (shard sums
// are atomic, scavenge counters only change while the world is
// stopped).
func (in *Interp) statAt(i int) int64 {
	vm := in.vm
	hs := vm.H.Stats()
	is := in.stats
	if !vm.M.Parallel() {
		is = vm.Stats()
	}
	switch i {
	case 1:
		return int64(hs.Scavenges)
	case 2:
		return int64(is.Bytecodes)
	case 3:
		return int64(is.Sends)
	case 4:
		return int64(is.CacheHits)
	case 5:
		return int64(is.CacheMisses)
	case 6:
		return int64(is.ProcessSwitches)
	case 7:
		return int64(is.ContextsAlloc)
	case 8:
		return int64(is.ContextsRecycled)
	case 9:
		return int64(hs.Allocations)
	case 10:
		return int64(hs.AllocatedWords)
	case 11:
		return int64(hs.ScavengeTime)
	case 12:
		return int64(is.DNUs)
	default:
		return 0
	}
}
