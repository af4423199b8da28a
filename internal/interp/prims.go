package interp

import (
	"strconv"

	"mst/internal/bytecode"
	"mst/internal/firefly"
	"mst/internal/jit"
	"mst/internal/object"
)

// Primitive numbers. Kernel sources reference these in <primitive: N>
// pragmas.
const (
	PrimAdd      = 1
	PrimSub      = 2
	PrimLT       = 3
	PrimGT       = 4
	PrimLE       = 5
	PrimGE       = 6
	PrimEq       = 7
	PrimNE       = 8
	PrimMul      = 9
	PrimDiv      = 10
	PrimMod      = 11
	PrimIntDiv   = 12
	PrimBitAnd   = 14
	PrimBitOr    = 15
	PrimBitXor   = 16
	PrimBitShift = 17
	PrimAsFloat  = 18

	PrimFloatAdd   = 20
	PrimFloatSub   = 21
	PrimFloatMul   = 22
	PrimFloatDiv   = 23
	PrimFloatLT    = 24
	PrimFloatEq    = 25
	PrimFloatTrunc = 26
	PrimFloatPrint = 28

	PrimAt    = 30
	PrimAtPut = 31
	PrimSize  = 32

	PrimIdentical    = 40
	PrimNotIdentical = 41
	PrimClass        = 42
	PrimIdentityHash = 43

	PrimBasicNew     = 50
	PrimBasicNewSize = 51
	PrimInstVarAt    = 52
	PrimInstVarAtPut = 53
	PrimShallowCopy  = 54

	PrimValue      = 60
	PrimValue1     = 61
	PrimValue2     = 62
	PrimValue3     = 63
	PrimValueArgs  = 64
	PrimPerform    = 65
	PrimPerform1   = 66
	PrimPerform2   = 67
	PrimPerformArr = 68

	PrimSignal      = 70
	PrimWait        = 71
	PrimResume      = 72
	PrimSuspend     = 73
	PrimNewProcess  = 74
	PrimTerminate   = 75
	PrimYield       = 76
	PrimThisProcess = 77
	PrimCanRun      = 78
	PrimSetPriority = 79

	PrimReplaceFrom = 80
	PrimCompareStr  = 81
	PrimAsSymbol    = 82
	PrimSymAsString = 83
	PrimStringHash  = 84

	PrimCompile        = 85
	PrimDecompile      = 86
	PrimRemoveSelector = 87

	PrimMsClock  = 90
	PrimScavenge = 91
	PrimVMStat   = 92
	PrimNumProcs = 93
	PrimFullGC   = 94

	PrimTranscriptShow = 95
	PrimDisplayText    = 97
	PrimSensorNext     = 98
	PrimSensorPending  = 99

	PrimDelayRegister = 102
	PrimNewSubclass   = 105
	PrimError         = 110
	PrimAsCharacter   = 116

	PrimSnapshot = 139

	PrimSysDictAtPut = 131
	PrimSysDictAt    = 132
	PrimSysDictHas   = 133
	PrimSysDictAssoc = 134
)

// intPrimOps maps each SmallInteger arithmetic and comparison primitive
// to the special-selector bytecode whose fast path (intArith,
// intCompare) defines it, so the special send, the primitive and msjit
// share one definition. PrimDiv is floor division once callPrimitive has
// found it exact.
var intPrimOps = [...]bytecode.Op{
	PrimAdd: bytecode.OpSendAdd, PrimSub: bytecode.OpSendSub,
	PrimMul: bytecode.OpSendMul, PrimDiv: bytecode.OpSendIntDiv,
	PrimMod: bytecode.OpSendMod, PrimIntDiv: bytecode.OpSendIntDiv,
	PrimBitAnd: bytecode.OpSendBitAnd, PrimBitOr: bytecode.OpSendBitOr,
	PrimBitXor: bytecode.OpSendBitXor, PrimBitShift: bytecode.OpSendBitShift,
	PrimLT: bytecode.OpSendLT, PrimGT: bytecode.OpSendGT,
	PrimLE: bytecode.OpSendLE, PrimGE: bytecode.OpSendGE,
	PrimEq: bytecode.OpSendEq, PrimNE: bytecode.OpSendNE,
}

// primReturn pops the receiver and nargs arguments and pushes v.
func (in *Interp) primReturn(nargs int, v object.OOP) bool {
	in.popN(nargs + 1)
	in.push(v)
	return true
}

// callPrimitive runs primitive prim with nargs arguments on the stack.
// It reports success; on failure the stack is unchanged and the caller
// activates the method's fallback code.
func (in *Interp) callPrimitive(prim, nargs int) bool {
	vm := in.vm
	h := vm.H
	recv := in.stackAt(nargs)

	switch prim {
	case PrimAdd, PrimSub, PrimMul, PrimDiv, PrimMod, PrimIntDiv,
		PrimBitAnd, PrimBitOr, PrimBitXor, PrimBitShift:
		arg := in.stackAt(0)
		if !recv.IsInt() || !arg.IsInt() {
			return false
		}
		if prim == PrimDiv && (arg.Int() == 0 || recv.Int()%arg.Int() != 0) {
			return false // non-exact division fails over to Fraction/Float code
		}
		if v, ok := intArith(intPrimOps[prim], recv.Int(), arg.Int()); ok {
			return in.primReturn(nargs, v)
		}
		return false

	case PrimLT, PrimGT, PrimLE, PrimGE, PrimEq, PrimNE:
		arg := in.stackAt(0)
		if !recv.IsInt() || !arg.IsInt() {
			return false
		}
		return in.primReturn(nargs, object.FromBool(intCompare(intPrimOps[prim], recv.Int(), arg.Int())))

	case PrimAsFloat:
		if !recv.IsInt() {
			return false
		}
		f := vm.NewFloat(in.p, float64(recv.Int()))
		return in.primReturn(nargs, f)

	case PrimFloatAdd, PrimFloatSub, PrimFloatMul, PrimFloatDiv,
		PrimFloatLT, PrimFloatEq:
		arg := in.stackAt(0)
		if !in.isFloat(recv) {
			return false
		}
		var b float64
		switch {
		case in.isFloat(arg):
			b = vm.FloatValue(arg)
		case arg.IsInt():
			b = float64(arg.Int())
		default:
			return false
		}
		a := vm.FloatValue(recv)
		switch prim {
		case PrimFloatLT:
			return in.primReturn(nargs, object.FromBool(a < b))
		case PrimFloatEq:
			return in.primReturn(nargs, object.FromBool(a == b))
		}
		var r float64
		switch prim {
		case PrimFloatAdd:
			r = a + b
		case PrimFloatSub:
			r = a - b
		case PrimFloatMul:
			r = a * b
		case PrimFloatDiv:
			if b == 0 {
				return false
			}
			r = a / b
		}
		f := vm.NewFloat(in.p, r)
		return in.primReturn(nargs, f)

	case PrimFloatTrunc:
		if !in.isFloat(recv) {
			return false
		}
		// Written so that NaN fails too: the image's fallback code runs
		// for any value outside the SmallInteger range.
		f := vm.FloatValue(recv)
		if !(f >= object.MinSmallInt && f < -object.MinSmallInt) {
			return false
		}
		return in.primReturn(nargs, object.FromInt(int64(f)))

	case PrimFloatPrint:
		if !in.isFloat(recv) {
			return false
		}
		s := strconv.FormatFloat(vm.FloatValue(recv), 'g', -1, 64)
		str := vm.NewString(in.p, s)
		return in.primReturn(nargs, str)

	case PrimAt:
		if v, ok := in.basicAt(recv, in.stackAt(0)); ok {
			return in.primReturn(nargs, v)
		}
		return false
	case PrimAtPut:
		val := in.stackAt(0)
		if in.basicAtPut(recv, in.stackAt(1), val) {
			return in.primReturn(nargs, val)
		}
		return false
	case PrimSize:
		if n, ok := in.basicSize(recv); ok {
			return in.primReturn(nargs, object.FromInt(int64(n)))
		}
		return false

	case PrimIdentical:
		return in.primReturn(nargs, object.FromBool(recv == in.stackAt(0)))
	case PrimNotIdentical:
		return in.primReturn(nargs, object.FromBool(recv != in.stackAt(0)))
	case PrimClass:
		return in.primReturn(nargs, vm.ClassOf(recv))
	case PrimIdentityHash:
		return in.primReturn(nargs, object.FromInt(int64(h.IdentityHash(recv))))

	case PrimBasicNew:
		if recv.IsInt() {
			return false
		}
		instSize, kind := DecodeFormat(h.Fetch(recv, ClsFormat))
		if kind != KindFixed {
			return false // indexable classes need new:
		}
		o := vm.allocFields(in.p, recv, instSize)
		return in.primReturn(nargs, o)

	case PrimBasicNewSize:
		n := in.stackAt(0)
		if recv.IsInt() || !n.IsInt() || n.Int() < 0 {
			return false
		}
		size := int(n.Int())
		instSize, kind := DecodeFormat(h.Fetch(recv, ClsFormat))
		var o object.OOP
		switch kind {
		case KindIdxPointers:
			o = vm.allocFields(in.p, recv, instSize+size)
		case KindIdxBytes, KindIdxChars:
			o = h.Allocate(in.p, recv, size, object.FmtBytes)
		case KindIdxWords:
			o = h.Allocate(in.p, recv, size, object.FmtWords)
		default:
			return false
		}
		return in.primReturn(nargs, o)

	case PrimInstVarAt:
		idx := in.stackAt(0)
		if !idx.IsInt() || recv.IsInt() {
			return false
		}
		i := int(idx.Int())
		instSize, _ := DecodeFormat(h.Fetch(vm.ClassOf(recv), ClsFormat))
		if i < 1 || i > instSize {
			return false
		}
		return in.primReturn(nargs, h.Fetch(recv, i-1))

	case PrimInstVarAtPut:
		idx := in.stackAt(1)
		val := in.stackAt(0)
		if !idx.IsInt() || recv.IsInt() {
			return false
		}
		i := int(idx.Int())
		instSize, _ := DecodeFormat(h.Fetch(vm.ClassOf(recv), ClsFormat))
		if i < 1 || i > instSize {
			return false
		}
		h.Store(in.p, recv, i-1, val)
		return in.primReturn(nargs, val)

	case PrimShallowCopy:
		return in.primShallowCopy(nargs, recv)

	case PrimValue, PrimValue1, PrimValue2, PrimValue3:
		want := prim - PrimValue
		if nargs != want || !in.isBlockOOP(recv) {
			return false
		}
		return in.blockValue(recv, nargs)

	case PrimValueArgs:
		return in.primValueWithArgs(nargs, recv)

	case PrimPerform, PrimPerform1, PrimPerform2:
		return in.primPerform(nargs)

	case PrimPerformArr:
		return in.primPerformWithArgs(nargs)

	case PrimSignal:
		if vm.ClassOf(recv) != vm.Specials.Semaphore {
			return false
		}
		in.primReturn(nargs, recv)
		in.semSignal(recv)
		return true

	case PrimWait:
		if vm.ClassOf(recv) != vm.Specials.Semaphore {
			return false
		}
		in.primReturn(nargs, recv)
		in.semWait(recv)
		return true

	case PrimResume:
		if vm.ClassOf(recv) != vm.Specials.Process {
			return false
		}
		in.primReturn(nargs, recv)
		in.procResume(recv)
		return true

	case PrimSuspend:
		if vm.ClassOf(recv) != vm.Specials.Process {
			return false
		}
		in.primReturn(nargs, recv)
		in.procSuspend(recv)
		return true

	case PrimNewProcess:
		return in.primNewProcess(nargs, recv)

	case PrimTerminate:
		if vm.ClassOf(recv) != vm.Specials.Process {
			return false
		}
		in.primReturn(nargs, recv)
		in.procTerminate(recv)
		return true

	case PrimYield:
		in.primReturn(nargs, recv)
		if in.proc != object.Nil {
			in.procYield()
		}
		return true

	case PrimThisProcess:
		return in.primReturn(nargs, in.proc)

	case PrimCanRun:
		target := in.stackAt(0)
		if vm.ClassOf(target) != vm.Specials.Process {
			return false
		}
		return in.primReturn(nargs, object.FromBool(in.canRun(target)))

	case PrimSetPriority:
		return in.primSetPriority(nargs, recv)

	case PrimReplaceFrom:
		return in.primReplaceFrom(nargs, recv)

	case PrimCompareStr:
		arg := in.stackAt(0)
		if !in.isStringy(recv) || !in.isStringy(arg) {
			return false
		}
		return in.primReturn(nargs, object.FromInt(int64(vm.H.CompareBytes(recv, arg))))

	case PrimAsSymbol:
		if !in.isStringy(recv) {
			return false
		}
		sym := vm.InternSymbol(in.p, in.stringOf(recv))
		return in.primReturn(nargs, sym)

	case PrimSymAsString:
		if !in.isStringy(recv) {
			return false
		}
		b := in.bytesOf(recv)
		s := vm.allocBytes(in.p, vm.Specials.String, len(b))
		vm.H.WriteBytes(s, b)
		return in.primReturn(nargs, s)

	case PrimStringHash:
		if !in.isStringy(recv) {
			return false
		}
		return in.primReturn(nargs, object.FromInt(int64(vm.bytesHash(recv))))

	case PrimCompile:
		return in.primCompile(nargs, recv)

	case PrimDecompile:
		if vm.ClassOf(recv) != vm.Specials.CompiledMethod {
			return false
		}
		// Decompiler/debugger attach: the method must run interpreted
		// from here on (per-processor tier — peers keep their copies).
		in.jitDemote(recv, jit.DeoptDecompile)
		var text []byte
		in.text, text = vm.disassemble(in.text, recv)
		s := vm.allocBytes(in.p, vm.Specials.String, len(text))
		vm.H.WriteBytes(s, text)
		return in.primReturn(nargs, s)

	case PrimRemoveSelector:
		return in.primRemoveSelector(nargs, recv)

	case PrimMsClock:
		return in.primReturn(nargs, object.FromInt(in.p.Now().Ms()))

	case PrimScavenge:
		vm.H.Scavenge(in.p)
		return in.primReturn(nargs, in.stackAt(nargs))

	case PrimFullGC:
		vm.H.FullCollect(in.p)
		return in.primReturn(nargs, in.stackAt(nargs))

	case PrimVMStat:
		idx := in.stackAt(0)
		if !idx.IsInt() {
			return false
		}
		return in.primReturn(nargs, object.FromInt(in.statAt(int(idx.Int()))))

	case PrimNumProcs:
		return in.primReturn(nargs, object.FromInt(int64(vm.M.NumProcs())))

	case PrimTranscriptShow:
		arg := in.stackAt(0)
		if !in.isStringy(arg) {
			return false
		}
		vm.Disp.TranscriptShow(in.p, in.bytesOf(arg))
		return in.primReturn(nargs, recv)

	case PrimDisplayText:
		s := in.stackAt(2)
		x := in.stackAt(1)
		y := in.stackAt(0)
		if !in.isStringy(s) || !x.IsInt() || !y.IsInt() {
			return false
		}
		vm.Disp.PostText(in.p, in.bytesOf(s), int(x.Int()), int(y.Int()))
		return in.primReturn(nargs, recv)

	case PrimSensorNext:
		// Pop under devMu, then allocate: NewArray may scavenge, and a
		// host mutex must never be held across an allocation.
		vm.devMu.Lock()
		if len(vm.inputQueue) == 0 {
			vm.devMu.Unlock()
			return in.primReturn(nargs, object.Nil)
		}
		e := vm.inputQueue[0]
		copy(vm.inputQueue, vm.inputQueue[1:])
		vm.inputQueue = vm.inputQueue[:len(vm.inputQueue)-1]
		vm.devMu.Unlock()
		arr := vm.NewArray(in.p, 4)
		h.StoreNoCheck(arr, 0, object.FromInt(int64(e.Kind)))
		h.StoreNoCheck(arr, 1, object.FromInt(int64(e.Key)))
		h.StoreNoCheck(arr, 2, object.FromInt(int64(e.X)))
		h.StoreNoCheck(arr, 3, object.FromInt(int64(e.Y)))
		return in.primReturn(nargs, arr)

	case PrimSensorPending:
		vm.devMu.Lock()
		queued := len(vm.inputQueue) > 0
		vm.devMu.Unlock()
		return in.primReturn(nargs,
			object.FromBool(queued || vm.Sensor.HasPending()))

	case PrimDelayRegister:
		sem := in.stackAt(1)
		ms := in.stackAt(0)
		if !ms.IsInt() || vm.ClassOf(sem) != vm.Specials.Semaphore {
			return false
		}
		vm.registerDelay(in.p.Now()+firefly.Time(ms.Int())*firefly.TicksPerMS, sem)
		return in.primReturn(nargs, recv)

	case PrimNewSubclass:
		return in.primNewSubclass(nargs, recv)

	case PrimError:
		arg := in.stackAt(0)
		msg := vm.DescribeOOP(arg)
		if in.isStringy(arg) {
			msg = vm.GoString(arg)
		}
		vm.Disp.TranscriptShow(in.p, []byte("Error: "+msg+"\n"))
		vm.hostMu.Lock()
		vm.logError("Smalltalk error: " + msg)
		vm.hostMu.Unlock()
		in.terminateCurrentProcess()
		return true

	case PrimSnapshot:
		if nargs != 1 {
			return false
		}
		return in.primSnapshot(nargs, recv)

	case PrimAsCharacter:
		if !recv.IsInt() {
			return false
		}
		c := vm.CharFor(in.p, rune(recv.Int()))
		return in.primReturn(nargs, c)

	case PrimSysDictAtPut:
		key := in.stackAt(1)
		val := in.stackAt(0)
		if !in.isStringy(key) {
			return false
		}
		vm.SysDictDefine(in.p, in.stringOf(key), val)
		return in.primReturn(nargs, in.stackAt(0))

	case PrimSysDictAt:
		key := in.stackAt(0)
		if !in.isStringy(key) {
			return false
		}
		v := vm.SysDictAt(in.stringOf(key))
		if v == object.Invalid {
			return false
		}
		return in.primReturn(nargs, v)

	case PrimSysDictHas:
		key := in.stackAt(0)
		if !in.isStringy(key) {
			return false
		}
		return in.primReturn(nargs,
			object.FromBool(vm.sysDictFind(in.stringOf(key)) != object.Invalid))

	case PrimSysDictAssoc:
		count := 0
		vm.SysDictDo(func(object.OOP) { count++ })
		arr := vm.NewArray(in.p, count)
		i := 0
		vm.SysDictDo(func(a object.OOP) {
			if i < count {
				h.Store(in.p, arr, i, a)
				i++
			}
		})
		return in.primReturn(nargs, arr)
	}
	return false
}
