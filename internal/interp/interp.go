package interp

import (
	"fmt"
	"strconv"

	"mst/internal/bytecode"
	"mst/internal/firefly"
	"mst/internal/heap"
	"mst/internal/jit"
	"mst/internal/object"
	"mst/internal/trace"
)

// Interp is one replicated interpreter: the paper's unit of parallelism
// ("we obtain parallelism by replicating the interpreter itself").
// Each interpreter runs on one virtual processor and executes one
// Smalltalk Process at a time; its registers are GC roots.
type Interp struct {
	vm *VM
	p  *firefly.Proc

	// Registers (roots). ctx is the active context; method/receiver/
	// bytes/home are caches derived from it; proc is the Smalltalk
	// Process being executed.
	ctx      object.OOP
	method   object.OOP
	receiver object.OOP
	bytes    object.OOP
	home     object.OOP // == ctx for method contexts
	proc     object.OOP

	pc      int // index into the bytecode array
	sp      int // slots used in the context's slot area (temps included)
	slotCap int // total slot fields in ctx
	isBlock bool

	// The register window (heap.Frame; NOT roots, re-bound by bindFrames
	// wherever ctx changes and after every collection): stk views ctx's
	// slot area — the operand stack, below it the temps of a method
	// context — and tmp views home's temps (== stk unless ctx is a block).
	stk, tmp heap.Frame

	// busAccum accrues fractional memory-bus contention penalties.
	busAccum firefly.Time

	// Per-processor replicas (paper §3.2).
	cache *[cacheSize]mcEntry // method cache (CacheReplicated)
	// free holds the small and large free context lists
	// (FreeCtxPerProcessor); NOT roots: flushed at every scavenge.
	free [2][]object.OOP

	// stats are this interpreter's activity counters — replicated like
	// the caches so parallel host mode counts without contention (or
	// races); VM.Stats() sums them.
	stats Stats

	// Host-side caches of the executing method, installed from its plan
	// (NOT roots themselves: re-installed after scavenges via
	// refreshCode). code is the decoded bytecode slice, lits the literal
	// frame, icm the method's inline-cache state (nil when ICs are off).
	code []byte
	lits object.OOP
	icm  *icMethod

	// ic is the per-processor inline-cache state by method oop: rooted,
	// re-keyed after every scavenge, dropped at installs. With the plan
	// table below it is all the per-method host state there is.
	ic map[object.OOP]*icMethod

	// Configuration and cost constants hoisted out of the dispatch loop.
	quantum      int // Config.QuantumBytecodes
	costs        *firefly.Costs
	probeCost    firefly.Time // per method-cache probe, replication included
	sharedLocked bool         // MethodCache == CacheSharedLocked
	twoWay       bool         // CacheWays == 2
	icPolicy     ICPolicy

	// rec caches the machine's flight recorder (nil = tracing off);
	// profFrames is profSync's reusable frame scratch (see profile.go).
	rec        *trace.Recorder
	profFrames []string

	// msjit tier state (Config.JIT; see jit.go). jfns is the executing
	// method's pc-indexed fused-group closures (nil = the method is not
	// compiled; a nil entry = that pc runs step()).
	jitOn bool
	jfns  []jitFn
	jleft int // bytecodes left in the running quantum (jit loop only)

	// idleFn is idleQuantum bound once (a method value allocates);
	// idleYieldAgain is the one bit it carries from a call to the next.
	idleFn         func() firefly.IdleResult
	idleYieldAgain bool

	// The per-processor plan table (plan.go; raw oops, flushed with the
	// method cache). planUsed lists the occupied slots, so a flush visits
	// only those.
	planUsed []uint16
	plans    [planTabSize]plan
}

func newInterp(vm *VM, p *firefly.Proc) *Interp {
	in := &Interp{vm: vm, p: p, proc: object.Nil, ctx: object.Nil,
		method: object.Nil, receiver: object.Nil, bytes: object.Nil, home: object.Nil,
		lits:         object.Nil,
		jitOn:        vm.Cfg.JIT,
		quantum:      vm.Cfg.QuantumBytecodes,
		costs:        vm.M.Costs(),
		rec:          vm.M.Recorder(),
		sharedLocked: vm.Cfg.MethodCache == CacheSharedLocked,
		twoWay:       vm.Cfg.CacheWays == 2,
		icPolicy:     vm.Cfg.InlineCache,
	}
	in.probeCost = in.costs.CacheProbe
	if vm.Cfg.MSMode && vm.Cfg.MethodCache == CacheReplicated {
		// The paper notes replication's drawback: "more overhead is
		// involved in access to the cache because it is replicated."
		in.probeCost += in.costs.CacheReplica
	}
	if vm.Cfg.MethodCache == CacheReplicated {
		in.cache = new([cacheSize]mcEntry)
	}
	if in.icPolicy != ICOff {
		in.ic = map[object.OOP]*icMethod{}
		vm.H.AddRootFunc(in.icVisitRoots)
	}
	in.idleFn = in.idleQuantum
	h := vm.H
	h.AddRoot(&in.ctx)
	h.AddRoot(&in.method)
	h.AddRoot(&in.receiver)
	h.AddRoot(&in.bytes)
	h.AddRoot(&in.home)
	h.AddRoot(&in.proc)
	h.OnPostScavenge(in.flushFreeContexts)
	return in
}

// Proc returns the virtual processor this interpreter runs on.
func (in *Interp) Proc() *firefly.Proc { return in.p }

// CurrentProcess returns the Smalltalk Process this interpreter is
// executing (nil oop when idle). Only the interpreter knows this — the
// paper's reorganization of activeProcess.
func (in *Interp) CurrentProcess() object.OOP { return in.proc }

// setProc switches the current Process register, maintaining the
// machine's count of actively-executing processors (the memory-bus
// contention model's input).
func (in *Interp) setProc(o object.OOP) {
	in.proc = o
	in.p.SetActive(o != object.Nil)
}

func (in *Interp) flushCache() {
	if in.cache != nil {
		*in.cache = [cacheSize]mcEntry{}
	}
}

func (in *Interp) flushFreeContexts() {
	in.free[0] = in.free[0][:0]
	in.free[1] = in.free[1][:0]
}

// Run is the interpreter's work function: quanta until shutdown. A
// panic (VM error in strict mode, heap exhaustion) stops this
// interpreter and fails any pending evaluation instead of crashing the
// host process.
func (in *Interp) Run() {
	defer func() {
		if r := recover(); r != nil {
			msg := fmt.Sprintf("interpreter %d died: %v", in.p.ID(), r)
			in.vm.hostMu.Lock()
			in.vm.errors = append(in.vm.errors, msg)
			in.vm.evalFailed = msg
			in.vm.hostMu.Unlock()
			in.vm.dead.Store(true)
			in.vm.evalDone.Store(true)
		}
	}()
	for !in.p.Stopped() {
		in.Quantum()
	}
}

// Quantum executes a bounded batch of bytecodes or, with no Process to
// run, idles — however many scheduling quanta that takes — until there is
// a Process, queued Go-side work, or a shutdown.
func (in *Interp) Quantum() {
	// Interpreter 0 drains Go-side work queued by VM.Do.
	if in == in.vm.Interps[0] && len(in.vm.pendingWork) > 0 {
		w := in.vm.pendingWork[0]
		in.vm.pendingWork[0] = nil // don't keep the popped closure reachable
		in.vm.pendingWork = in.vm.pendingWork[1:]
		w(in.p)
	}
	if in.proc == object.Nil {
		in.p.Idle(in.idleFn)
		return
	}
	in.pollDevices()
	// Another processor may have suspended or terminated our Process
	// asynchronously (the paper's ProcessorScheduler hazards).
	if st := in.vm.H.Fetch(in.proc, PrState); st.Int() != StateRunning {
		in.abandonCurrent()
		return
	}
	n := in.quantum
	// Both loops charge each bytecode themselves (count, dispatch cost,
	// bus share) and then make exactly one call, to step() or to a fused
	// closure. The duplication is measured, not accidental (PR 13, paired
	// benchmark runs): folding the plain loop into the jleft loop cost
	// +10% host time on macro_uni and +8% on gc_churn, charging inside a
	// step() wrapper (two calls per bytecode) +8% on macro_uni, and even
	// sharing one step() call site between the jit loop's two arms +7% on
	// macro_fast.
	if in.jitOn {
		// A compiled method carries closures only at the head pcs of its
		// fused groups (jitfuse.go); every other pc runs step(), the one
		// definition of the singleton bytecodes. A fused group proves up
		// front that none of its internal safepoints could fire, batches
		// the identical charges, and draws its extra bytecodes from jleft,
		// so the quantum covers exactly QuantumBytecodes either way.
		in.jleft = n
		for in.jleft > 0 {
			in.p.CheckYield()
			if in.p.Stopped() || in.proc == object.Nil {
				return
			}
			in.jleft--
			in.stats.Bytecodes++
			if fns := in.jfns; fns != nil {
				in.stats.JITBytecodes++
				in.p.Advance(in.costs.Bytecode)
				in.busCharge()
				if fn := fns[in.pc]; fn != nil {
					fn()
				} else {
					in.step()
				}
			} else {
				in.p.Advance(in.costs.Bytecode)
				in.busCharge()
				in.step()
			}
		}
		in.p.CheckYield()
		return
	}
	for i := 0; i < n; i++ {
		in.p.CheckYield()
		if in.p.Stopped() || in.proc == object.Nil {
			return
		}
		in.stats.Bytecodes++
		in.p.Advance(in.costs.Bytecode)
		in.busCharge()
		in.step()
	}
	in.p.CheckYield()
}

// fetchByte reads the next code byte (from the decoded host-side copy
// of the method's bytecode; see planFor).
func (in *Interp) fetchByte() int {
	b := in.code[in.pc]
	in.pc++
	return int(b)
}

func (in *Interp) fetchI8() int {
	v := in.fetchByte()
	return int(int8(v))
}

func (in *Interp) fetchI16() int {
	hi := in.fetchByte()
	lo := in.fetchByte()
	return int(int16(uint16(hi)<<8 | uint16(lo)))
}

func (in *Interp) fetchU16() int {
	hi := in.fetchByte()
	lo := in.fetchByte()
	return int(uint16(hi)<<8 | uint16(lo))
}

// ---- Operand stack: the one place context slots are addressed. Slots
// above sp are always nil so the scavenger can scan whole contexts
// without knowing sp. ----

// push: stk spans exactly the slot area, so Poke's bounds test is also
// the overflow check.
func (in *Interp) push(v object.OOP) {
	if in.stk.Poke(in.sp, v) {
		in.sp++
	} else {
		in.pushSlow(v)
	}
}

// pushSlow is push where Poke would not store: the stack is full, or the
// store takes the accessors (a young value into a tenured context;
// -parallel; ConcMark).
func (in *Interp) pushSlow(v object.OOP) {
	if in.sp >= in.slotCap {
		in.vm.vmError("context stack overflow (sp=%d cap=%d)", in.sp, in.slotCap)
		in.terminateCurrentProcess()
		return
	}
	in.stk.Set(in.p, in.sp, v)
	in.sp++
}

func (in *Interp) pop() object.OOP {
	in.sp--
	v := in.stk.Get(in.sp)
	in.stk.Put(in.sp, object.Nil)
	return v
}

// stackAt peeks n slots below the top (0 = top).
func (in *Interp) stackAt(n int) object.OOP {
	return in.stk.Get(in.sp - 1 - n)
}

// setStackAt replaces the slot n below the top.
func (in *Interp) setStackAt(n int, v object.OOP) {
	in.stk.Set(in.p, in.sp-1-n, v)
}

// popN discards n slots, top first.
func (in *Interp) popN(n int) {
	for ; n > 0; n-- {
		in.sp--
		in.stk.Put(in.sp, object.Nil)
	}
}

// bindFrames points the register window at ctx and home. Views go stale
// when their object moves or is tenured, so this runs wherever ctx is
// assigned (loadContext, activateMethod, pickNext) and after every
// collection (refreshCode).
func (in *Interp) bindFrames() {
	h := in.vm.H
	if in.isBlock {
		in.stk.Bind(h, in.ctx, BCtxFixed, in.slotCap)
		in.tmp.Bind(h, in.home, CtxFixed, h.FieldCount(in.home)-CtxFixed)
	} else {
		in.stk.Bind(h, in.ctx, CtxFixed, in.slotCap)
		in.tmp = in.stk
	}
}

// step executes the bytecode at pc. It is the only definition of the
// singleton bytecodes: interpreted and compiled methods both run it, and
// Quantum has already charged for the bytecode.
//
// Temps always live in the home context (home == ctx for a method
// context, the enclosing method's context for a block), so temp access
// goes through in.tmp with no isBlock branch.
func (in *Interp) step() {
	vm := in.vm
	h := vm.H

	op := bytecode.Op(in.fetchByte())
	switch op {
	case bytecode.OpPushSelf:
		in.push(in.receiver)
	case bytecode.OpPushNil:
		in.push(object.Nil)
	case bytecode.OpPushTrue:
		in.push(object.True)
	case bytecode.OpPushFalse:
		in.push(object.False)
	case bytecode.OpPushTemp:
		in.push(in.tmp.Get(in.fetchByte()))
	case bytecode.OpPushInstVar:
		in.push(h.Fetch(in.receiver, in.fetchByte()))
	case bytecode.OpPushLiteral:
		in.push(in.literalAt(in.fetchByte()))
	case bytecode.OpPushGlobal:
		assoc := in.literalAt(in.fetchByte())
		in.push(h.Fetch(assoc, AsValue))
	case bytecode.OpPushInt8:
		in.push(object.FromInt(int64(in.fetchI8())))
	case bytecode.OpPushThisContext:
		in.flushRegisters()
		in.push(in.ctx)
		if in.jfns != nil {
			// Uncommon trap: a reified context couples the method to
			// interpreter state, so pin it there and leave compiled code.
			in.jitDemote(in.method, jit.DeoptUncommon)
		}
	case bytecode.OpDup:
		in.push(in.stackAt(0))
	case bytecode.OpPop:
		in.pop()

	case bytecode.OpStoreTemp:
		in.tmp.Set(in.p, in.fetchByte(), in.stackAt(0))
	case bytecode.OpStoreInstVar:
		h.Store(in.p, in.receiver, in.fetchByte(), in.stackAt(0))
	case bytecode.OpStoreGlobal:
		assoc := in.literalAt(in.fetchByte())
		h.Store(in.p, assoc, AsValue, in.stackAt(0))
	case bytecode.OpPopTemp:
		in.tmp.Set(in.p, in.fetchByte(), in.pop())
	case bytecode.OpPopInstVar:
		h.Store(in.p, in.receiver, in.fetchByte(), in.pop())
	case bytecode.OpPopGlobal:
		assoc := in.literalAt(in.fetchByte())
		h.Store(in.p, assoc, AsValue, in.pop())

	case bytecode.OpJump:
		off := in.fetchI16()
		in.pc += off
	case bytecode.OpJumpFalse, bytecode.OpJumpTrue:
		off := in.fetchI16()
		v := in.pop()
		want := object.True
		if op == bytecode.OpJumpFalse {
			want = object.False
		}
		if v == want {
			in.pc += off
		} else if v != object.True && v != object.False {
			in.mustBeBoolean(v)
		}
	case bytecode.OpPushBlock:
		in.pushBlock()
	case bytecode.OpReturnTop:
		in.returnValue(in.pop(), true)
	case bytecode.OpReturnSelf:
		in.returnValue(in.receiver, true)
	case bytecode.OpBlockReturn:
		in.blockReturn()

	case bytecode.OpSend:
		lit := in.fetchByte()
		nargs := in.fetchByte()
		in.send(in.literalAt(lit), nargs, false, in.pc-3)
	case bytecode.OpSendSuper:
		lit := in.fetchByte()
		nargs := in.fetchByte()
		in.send(in.literalAt(lit), nargs, true, in.pc-3)

	default:
		if bytecode.IsSpecialSend(op) {
			in.specialSend(op, in.pc-1)
			return
		}
		vm.vmError("bad bytecode %d at pc %d", op, in.pc-1)
		in.terminateCurrentProcess()
	}
}

// busCharge accrues the shared memory-bus contention penalty: executing
// alongside other active processors costs extra (paper: competition
// overhead; Firefly: five processors on one bus). Both execution tiers
// charge it identically, once per bytecode.
func (in *Interp) busCharge() {
	if d := in.costs.BusDivisor; d > 0 {
		if k := in.vm.M.ActiveProcs() - 1; k > 0 {
			in.busAccum += firefly.Time(k)
			if in.busAccum >= d {
				in.p.Advance(in.busAccum / d)
				in.busAccum %= d
			}
		}
	}
}

// busChargeN accrues n bytecodes' worth of bus contention in one shot
// (fused groups). The floor-divided accumulator telescopes: n single
// charges at a fixed active-processor count advance exactly what one
// n-scaled charge does, remainder included.
func (in *Interp) busChargeN(n int) {
	if d := in.costs.BusDivisor; d > 0 {
		if k := in.vm.M.ActiveProcs() - 1; k > 0 {
			in.busAccum += firefly.Time(n) * firefly.Time(k)
			if in.busAccum >= d {
				in.p.Advance(in.busAccum / d)
				in.busAccum %= d
			}
		}
	}
}

// literalAt returns literal frame entry i of the current method (the
// frame oop is cached in a register-derived slot; see loadContext).
func (in *Interp) literalAt(i int) object.OOP {
	return in.vm.H.Fetch(in.lits, i)
}

// pushBlock creates a BlockContext for a PushBlock bytecode.
func (in *Interp) pushBlock() {
	vm := in.vm
	nargs := in.fetchByte()
	firstArg := in.fetchByte()
	bodyLen := in.fetchU16()
	initialPC := in.pc
	in.pc += bodyLen

	// Allocation may scavenge; registers are roots, so no handles are
	// needed for the interpreter state itself.
	blk := vm.H.Allocate(in.p, vm.Specials.BlockContext,
		BCtxFixed+BlockCtxSlots, object.FmtPointers)
	h := vm.H
	h.StoreNoCheck(blk, BCtxCaller, object.Nil)
	h.StoreNoCheck(blk, BCtxPC, object.FromInt(int64(initialPC)))
	h.StoreNoCheck(blk, BCtxSP, object.FromInt(0))
	h.Store(in.p, blk, BCtxHome, in.home)
	h.StoreNoCheck(blk, BCtxInfo, object.FromInt(int64(nargs)|int64(firstArg)<<8))
	h.StoreNoCheck(blk, BCtxInitialPC, object.FromInt(int64(initialPC)))
	in.push(blk)
}

// mustBeBoolean reports a conditional jump on a non-Boolean.
func (in *Interp) mustBeBoolean(v object.OOP) {
	in.vm.vmError("mustBeBoolean: jump on %s", in.vm.DescribeOOP(v))
	in.terminateCurrentProcess()
}

// flushRegisters writes pc and sp back into the active context.
func (in *Interp) flushRegisters() {
	if in.ctx == object.Nil {
		return
	}
	h := in.vm.H
	h.StoreNoCheck(in.ctx, CtxPC, object.FromInt(int64(in.pc)))
	h.StoreNoCheck(in.ctx, CtxSP, object.FromInt(int64(in.sp)))
}

// loadContext makes ctx the active context and loads the register cache.
func (in *Interp) loadContext(ctx object.OOP) {
	h := in.vm.H
	in.ctx = ctx
	cls := h.ClassOf(ctx)
	in.isBlock = cls == in.vm.Specials.BlockContext
	base := CtxFixed
	if in.isBlock {
		in.home = h.Fetch(ctx, BCtxHome)
		base = BCtxFixed
	} else {
		in.home = ctx
	}
	in.method = h.Fetch(in.home, CtxMethod)
	in.receiver = h.Fetch(in.home, CtxReceiver)
	in.enter(in.planFor(in.method))
	in.pc = int(h.Fetch(ctx, CtxPC).Int())
	in.sp = int(h.Fetch(ctx, CtxSP).Int())
	in.slotCap = h.FieldCount(ctx) - base
	in.bindFrames()
	if in.vm.prof != nil {
		in.profSync()
	}
}

// DescribeOOP renders an oop for diagnostics (Go-side, no image code).
func (vm *VM) DescribeOOP(o object.OOP) string {
	switch {
	case o.IsInt():
		return strconv.FormatInt(o.Int(), 10)
	case o == object.Nil:
		return "nil"
	case o == object.True:
		return "true"
	case o == object.False:
		return "false"
	case o == object.Invalid:
		return "<invalid>"
	}
	cls := vm.H.ClassOf(o)
	if cls == vm.Specials.String || cls == vm.Specials.Symbol {
		return "'" + vm.GoString(o) + "'"
	}
	if cls == object.Invalid {
		return "<unclassed>"
	}
	name := vm.H.Fetch(cls, ClsName)
	if name != object.Nil && vm.H.Header(name).Format() == object.FmtBytes {
		return "a " + vm.GoString(name)
	}
	return "<obj>"
}
