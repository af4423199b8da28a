package interp

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"mst/internal/bytecode"
	"mst/internal/compiler"
	"mst/internal/firefly"
	"mst/internal/heap"
	"mst/internal/object"
)

// classEnv adapts a class to the compiler's name-resolution interface.
// It answers from the live image, comparing names in the heap, so a
// question allocates nothing: instance variables from the class's
// (inherited) declaration order, globals from the system dictionary,
// with capitalized unknowns auto-declaring as globals so kernel sources
// may forward-reference classes. class is a raw oop: an env is good
// until the next allocation, which covers a compile (it allocates no
// heap object) and the memo's re-asks.
type classEnv struct {
	vm    *VM
	class object.OOP
}

// EnvForClass answers class's compiler.Env, to be used before anything
// allocates in the heap.
func (vm *VM) EnvForClass(class object.OOP) compiler.Env {
	return &classEnv{vm: vm, class: class}
}

// InstVarIndex answers name's index in the class's full,
// superclass-first instance variable list.
func (e *classEnv) InstVarIndex(name string) (int, bool) {
	h := e.vm.H
	if size, _ := DecodeFormat(h.Fetch(e.class, ClsFormat)); size == 0 {
		return 0, false // no named fields anywhere up the chain (every doIt's class)
	}
	total := 0
	for c := e.class; c != object.Nil && c != object.Invalid; c = h.Fetch(c, ClsSuperclass) {
		total += h.FieldCount(h.Fetch(c, ClsInstVarNames))
	}
	// Walk up from the class, its own names last in the list: the match
	// nearest the root is the first in list order, and wins.
	idx, found := 0, false
	for c := e.class; c != object.Nil && c != object.Invalid; c = h.Fetch(c, ClsSuperclass) {
		ivn := h.Fetch(c, ClsInstVarNames)
		n := h.FieldCount(ivn)
		total -= n
		for j := 0; j < n; j++ {
			if h.EqualString(h.Fetch(ivn, j), name) {
				idx, found = total+j, true
				break
			}
		}
	}
	return idx, found
}

func (e *classEnv) IsGlobal(name string) bool {
	if e.vm.sysDictFind(name) != object.Invalid {
		return true
	}
	// Capitalized names auto-declare (forward references during file-in).
	return name[0] >= 'A' && name[0] <= 'Z'
}

// MaterializeMethod turns a compiled method into a CompiledMethod heap
// object owned by methodClass. MAY GC.
func (vm *VM) MaterializeMethod(p *firefly.Proc, m *compiler.Method, methodClass object.OOP, category string) object.OOP {
	hs := vm.H.Handles(p)
	defer hs.Close()
	mcH := hs.Add(methodClass)

	litsH := hs.Add(vm.NewArray(p, len(m.Literals)))
	for i, l := range m.Literals {
		v := vm.materializeLit(p, l)
		vm.H.Store(p, litsH.Get(), i, v)
	}

	bytesH := hs.Add(vm.H.Allocate(p, vm.Specials.ByteArray, len(m.Code), object.FmtBytes))
	vm.H.WriteBytes(bytesH.Get(), m.Code)

	selH := hs.Add(vm.InternSymbol(p, m.Selector))
	catH := hs.Add(vm.NewString(p, category))
	srcH := hs.Add(vm.NewString(p, m.Source))

	mo := vm.H.Allocate(p, vm.Specials.CompiledMethod, MethodInstSize, object.FmtPointers)
	vm.H.StoreNoCheck(mo, CMHeader,
		encodeMethodHeader(m.NumArgs, m.NumTemps, m.MaxStack, m.Primitive, m.Clean, m.NumSendSites))
	vm.H.Store(p, mo, CMLiterals, litsH.Get())
	vm.H.Store(p, mo, CMBytes, bytesH.Get())
	vm.H.Store(p, mo, CMSelector, selH.Get())
	vm.H.Store(p, mo, CMMethodClass, mcH.Get())
	vm.H.Store(p, mo, CMCategory, catH.Get())
	vm.H.Store(p, mo, CMSource, srcH.Get())
	return mo
}

func (vm *VM) materializeLit(p *firefly.Proc, l compiler.Lit) object.OOP {
	switch l.Kind {
	case compiler.LitInt:
		return object.FromInt(l.Int)
	case compiler.LitFloat:
		return vm.NewFloat(p, l.Flt)
	case compiler.LitChar:
		return vm.CharFor(p, l.Rune)
	case compiler.LitString:
		return vm.NewString(p, l.Str)
	case compiler.LitSymbol:
		return vm.InternSymbol(p, l.Str)
	case compiler.LitTrue:
		return object.True
	case compiler.LitFalse:
		return object.False
	case compiler.LitNil:
		return object.Nil
	case compiler.LitGlobal:
		return vm.SysDictDefine(p, l.Str, object.Invalid)
	case compiler.LitArray:
		hs := vm.H.Handles(p)
		defer hs.Close()
		ah := hs.Add(vm.NewArray(p, len(l.Arr)))
		for i, e := range l.Arr {
			v := vm.materializeLit(p, e)
			vm.H.Store(p, ah.Get(), i, v)
		}
		return ah.Get()
	default:
		panic(fmt.Sprintf("interp: unknown literal kind %d", l.Kind))
	}
}

// CompileAndInstall compiles source as a method of class and installs it
// in the class's method dictionary, flushing the method caches. MAY GC.
func (vm *VM) CompileAndInstall(p *firefly.Proc, class object.OOP, source, category string) (object.OOP, error) {
	// The compile asks p's interpreter's env, so compiles on two
	// processors (the compile primitive, -parallel) never share one.
	env := &vm.Interps[p.ID()].env
	env.class = class
	m, err := methods.compile(source, env)
	if err != nil {
		return object.Nil, err
	}
	return vm.installMethod(p, class, m, category), nil
}

// installMethod materializes m as a method of class and installs it.
// MAY GC.
func (vm *VM) installMethod(p *firefly.Proc, class object.OOP, m *compiler.Method, category string) object.OOP {
	hs := vm.H.Handles(p)
	defer hs.Close()
	ch := hs.Add(class)
	moH := hs.Add(vm.MaterializeMethod(p, m, ch.Get(), category))
	vm.installInDict(p, ch, moH)
	return moH.Get()
}

// installInDict inserts the method into the class's method dictionary
// (growing if needed) under its selector, then flushes every cache.
// Both the class and the method arrive as handles because growing the
// dictionary can scavenge.
func (vm *VM) installInDict(p *firefly.Proc, classH, moH heap.Handle) {
	h := vm.H
	dict := h.Fetch(classH.Get(), ClsMethodDict)
	keys := h.Fetch(dict, MDKeys)
	n := h.FieldCount(keys)
	tally := int(h.Fetch(dict, MDTally).Int())
	if (tally+1)*2 > n {
		vm.rehashMethodDict(p, classH.Get(), 2*n, -1)
		dict = h.Fetch(classH.Get(), ClsMethodDict)
		keys = h.Fetch(dict, MDKeys)
	}
	sel := h.Fetch(moH.Get(), CMSelector)
	j := vm.methodDictSlot(keys, sel)
	if j < 0 {
		vm.vmError("method dictionary full after grow")
		return
	}
	if h.Fetch(keys, j) != sel { // else a redefinition
		h.Store(p, keys, j, sel)
		h.StoreNoCheck(dict, MDTally, object.FromInt(int64(tally+1)))
	}
	h.Store(p, h.Fetch(dict, MDValues), j, moH.Get())
	vm.flushAllCaches()
}

// methodDictSlot probes a method dictionary's keys for sel: it answers the
// slot that holds sel, else the empty slot where sel would go, else -1
// (keys full or empty).
func (vm *VM) methodDictSlot(keys, sel object.OOP) int {
	h := vm.H
	n := h.FieldCount(keys)
	if n == 0 {
		return -1 // before IdentityHash, which may assign sel a hash
	}
	idx := int(h.IdentityHash(sel)) & (n - 1)
	for i := 0; i < n; i++ {
		j := (idx + i) & (n - 1)
		if k := h.Fetch(keys, j); k == sel || k == object.Nil {
			return j
		}
	}
	return -1
}

// rehashMethodDict gives class a new method dictionary of n slots that
// holds every entry of its current one except the one in slot drop (-1
// drops none): a grow passes twice the size, a removal the same size.
// drop is a slot, not the selector, because a slot does not move when the
// allocations here scavenge. It answers class, which may have moved. MAY GC.
func (vm *VM) rehashMethodDict(p *firefly.Proc, class object.OOP, n, drop int) object.OOP {
	h := vm.H
	hs := h.Handles(p)
	defer hs.Close()
	ch := hs.Add(class)

	oldDict := h.Fetch(class, ClsMethodDict)
	oldKeysH := hs.Add(h.Fetch(oldDict, MDKeys))
	oldValsH := hs.Add(h.Fetch(oldDict, MDValues))

	newKeysH := hs.Add(vm.NewArray(p, n))
	newValsH := hs.Add(vm.NewArray(p, n))
	dict := vm.allocFields(p, vm.Specials.MethodDictionary, MethodDictInstSize)
	// Nothing below allocates: raw oops hold.
	oldKeys, oldVals, keys, vals := oldKeysH.Get(), oldValsH.Get(), newKeysH.Get(), newValsH.Get()
	h.Store(p, dict, MDKeys, keys)
	h.Store(p, dict, MDValues, vals)
	tally := 0
	for i := range h.FieldCount(oldKeys) {
		k := h.Fetch(oldKeys, i)
		if k == object.Nil || i == drop {
			continue
		}
		j := vm.methodDictSlot(keys, k)
		h.Store(p, keys, j, k)
		h.Store(p, vals, j, h.Fetch(oldVals, i))
		tally++
	}
	h.StoreNoCheck(dict, MDTally, object.FromInt(int64(tally)))
	h.Store(p, ch.Get(), ClsMethodDict, dict)
	return ch.Get()
}

func (vm *VM) flushAllCaches() {
	vm.sharedCache.flush()
	for _, in := range vm.Interps {
		in.cache.flush()
		// Inline caches bind class→method; a (re)definition makes any
		// of them stale. Fused bodies bake in IC-site identities and go
		// with them, and the plans point at both.
		in.flushIC()
		in.flushPlans()
		in.refreshCode()
	}
}

// CreateClass builds a new class (with metaclass) at runtime, registers
// it as a global, and links it under its superclass. MAY GC.
func (vm *VM) CreateClass(p *firefly.Proc, name string, super object.OOP,
	instVars []string, kind ClassKind, category string) object.OOP {
	h := vm.H
	hs := h.Handles(p)
	defer hs.Close()
	superH := hs.Add(super)

	superSize := 0
	if super != object.Nil {
		superSize, _ = DecodeFormat(h.Fetch(super, ClsFormat))
		if kind == KindFixed {
			// Indexability is inherited unless redeclared.
			_, superKind := DecodeFormat(h.Fetch(super, ClsFormat))
			if superKind != KindFixed {
				kind = superKind
			}
		}
	}
	instSize := superSize + len(instVars)

	clsH := hs.Add(vm.allocFields(p, object.Nil, ClassInstSize))
	metaH := hs.Add(vm.allocFields(p, vm.Specials.Metaclass, ClassInstSize))
	h.SetClass(p, clsH.Get(), metaH.Get())

	fill := func(target heap.Handle, nameStr string, isMeta bool) {
		nm := vm.InternSymbol(p, nameStr)
		h.Store(p, target.Get(), ClsName, nm)
		d := vm.newMethodDict(p)
		h.Store(p, target.Get(), ClsMethodDict, d)
		org := vm.NewString(p, "")
		h.Store(p, target.Get(), ClsOrganization, org)
		cat := vm.NewString(p, category)
		h.Store(p, target.Get(), ClsCategory, cat)
		com := vm.NewString(p, "")
		h.Store(p, target.Get(), ClsComment, com)
		sub := vm.NewArray(p, 0)
		h.Store(p, target.Get(), ClsSubclasses, sub)
		if isMeta {
			h.StoreNoCheck(target.Get(), ClsFormat, EncodeFormat(ClassInstSize, KindFixed))
		}
	}
	fill(clsH, name, false)
	fill(metaH, name+" class", true)

	h.StoreNoCheck(clsH.Get(), ClsFormat, EncodeFormat(instSize, kind))
	h.Store(p, clsH.Get(), ClsSuperclass, superH.Get())
	ivnH := hs.Add(vm.NewArray(p, len(instVars)))
	for i, n := range instVars {
		s := vm.NewString(p, n)
		h.Store(p, ivnH.Get(), i, s)
	}
	h.Store(p, clsH.Get(), ClsInstVarNames, ivnH.Get())
	h.Store(p, metaH.Get(), ClsInstVarNames, vm.NewArray(p, 0))
	h.Store(p, metaH.Get(), ClsThisClass, clsH.Get())

	// Metaclass chain: new class's metaclass under super's metaclass.
	if superH.Get() == object.Nil {
		h.Store(p, metaH.Get(), ClsSuperclass, vm.Specials.Class)
	} else {
		h.Store(p, metaH.Get(), ClsSuperclass, h.ClassOf(superH.Get()))
	}

	// Link into the superclass's subclasses array (copy-grow).
	if superH.Get() != object.Nil {
		old := h.Fetch(superH.Get(), ClsSubclasses)
		oldH := hs.Add(old)
		n := h.FieldCount(old)
		grown := vm.NewArray(p, n+1)
		for i := 0; i < n; i++ {
			h.Store(p, grown, i, h.Fetch(oldH.Get(), i))
		}
		h.Store(p, grown, n, clsH.Get())
		h.Store(p, superH.Get(), ClsSubclasses, grown)
	}

	vm.SysDictDefine(p, name, clsH.Get())
	return clsH.Get()
}

// primNewSubclass implements the subclass-creation primitive behind
// `subclass:instanceVariableNames:category:`. It splits the instance
// variables with strings.Fields, as file-in's class definitions do.
func (in *Interp) primNewSubclass(nargs int, recv object.OOP) bool {
	vm := in.vm
	if nargs != 3 || recv.IsInt() {
		return false
	}
	nameO := in.stackAt(2)
	ivO := in.stackAt(1)
	catO := in.stackAt(0)
	if !in.isStringy(nameO) || !in.isStringy(ivO) || !in.isStringy(catO) {
		return false
	}
	name := vm.GoString(nameO)
	ivs := strings.Fields(vm.GoString(ivO))
	cat := vm.GoString(catO)
	if existing := vm.SysDictAt(name); existing != object.Invalid && existing != object.Nil {
		// Redefinition: keep it simple, fail the primitive so image
		// code can decide (kernel sources never redefine).
		return false
	}
	cls := vm.CreateClass(in.p, name, recv, ivs, KindFixed, cat)
	return in.primReturn(nargs, cls)
}

// newMethodDict allocates an empty method dictionary at runtime.
func (vm *VM) newMethodDict(p *firefly.Proc) object.OOP {
	const capacity = 8
	hs := vm.H.Handles(p)
	defer hs.Close()
	dH := hs.Add(vm.allocFields(p, vm.Specials.MethodDictionary, MethodDictInstSize))
	vm.H.StoreNoCheck(dH.Get(), MDTally, object.FromInt(0))
	k := vm.NewArray(p, capacity)
	vm.H.Store(p, dH.Get(), MDKeys, k)
	v := vm.NewArray(p, capacity)
	vm.H.Store(p, dH.Get(), MDValues, v)
	return dH.Get()
}

// ---- Evaluation ----

// NewProcessForMethod wraps a zero-argument method in a fresh Process
// (suspended). MAY GC.
func (vm *VM) NewProcessForMethod(p *firefly.Proc, method, receiver object.OOP, priority int) object.OOP {
	h := vm.H
	hs := h.Handles(p)
	defer hs.Close()
	mH := hs.Add(method)
	rH := hs.Add(receiver)

	hdr := h.Fetch(method, CMHeader)
	slots := SmallCtxSlots
	if headerNumTemps(hdr)+headerMaxStack(hdr)+2 > SmallCtxSlots {
		slots = LargeCtxSlots
	}
	ctxH := hs.Add(vm.allocFields(p, vm.Specials.MethodContext, CtxFixed+slots))
	h.StoreNoCheck(ctxH.Get(), CtxSender, object.Nil)
	h.StoreNoCheck(ctxH.Get(), CtxPC, object.FromInt(0))
	h.StoreNoCheck(ctxH.Get(), CtxSP, object.FromInt(int64(headerNumTemps(hdr))))
	h.Store(p, ctxH.Get(), CtxMethod, mH.Get())
	h.Store(p, ctxH.Get(), CtxReceiver, rH.Get())

	proc := vm.allocFields(p, vm.Specials.Process, ProcessInstSize)
	h.Store(p, proc, PrSuspendedContext, ctxH.Get())
	h.StoreNoCheck(proc, PrPriority, object.FromInt(int64(priority)))
	h.StoreNoCheck(proc, PrState, object.FromInt(StateSuspended))
	return proc
}

// EvalResult reports one evaluation.
type EvalResult struct {
	Value  object.OOP
	Reason firefly.StopReason
	Failed string // non-empty when the Process died on a VM error
}

// Do executes f on interpreter 0's virtual processor inside the machine
// loop. Heap-mutating work initiated from Go (method installation,
// evaluation setup) must go through Do once the machine has run: the
// host main goroutine may not touch virtual locks while processors are
// parked mid-acquisition. An idle interpreter 0 runs f in its idle
// quantum, on whichever coroutine scheduled it, so f may not yield: a
// Yield there kills interpreter 0 and Do reports its death. A warm boot
// calls Do some 560 times, so Do allocates nothing: f is queued as given
// (the callers on that path pass a method value bound once in New) and
// the stop predicate is bound once.
func (vm *VM) Do(f func(p *firefly.Proc)) error {
	vm.work = f
	vm.workDone.Store(false)
	reason := vm.M.Run(vm.doStop)
	if vm.dead.Load() {
		return fmt.Errorf("interp: machine dead: %s", vm.evalFailed)
	}
	if !vm.workDone.Load() {
		// Run stopped (time limit) first: interpreter 0 never reached
		// the work. Drop it.
		vm.work = nil
		return fmt.Errorf("interp: queued work did not run: %v", reason)
	}
	return nil
}

// runWork runs Do's queued work on interpreter 0's processor p.
func (vm *VM) runWork(p *firefly.Proc) {
	w := vm.work
	vm.work = nil // don't keep the closure reachable
	w(p)
	// Read by Do's stop predicate, which runs at every scheduling
	// decision and in parallel host mode at every processor's safepoints
	// — hence atomic, and no mutex.
	vm.workDone.Store(true)
}

// installReq is the one install InstallSource has in flight.
type installReq struct {
	class            object.OOP
	source, category string
	err              error
}

// InstallSource compiles method source against class's environment and
// installs it into class, safely from Go, through the machine loop.
func (vm *VM) InstallSource(class object.OOP, source, category string) error {
	vm.install = installReq{class: class, source: source, category: category}
	err := vm.Do(vm.installFn)
	installErr := vm.install.err
	vm.install = installReq{}
	if err != nil {
		return err
	}
	return installErr
}

// runInstall is InstallSource's work, bound once as vm.installFn.
func (vm *VM) runInstall(p *firefly.Proc) {
	r := &vm.install
	_, r.err = vm.CompileAndInstall(p, r.class, r.source, r.category)
}

// Evaluate compiles source as a DoIt, runs it as a Process at
// UserPriority, and drives the machine until it completes. Background
// Processes spawned earlier keep running during the evaluation. Only one
// Evaluate may be active at a time.
func (vm *VM) Evaluate(source string) (EvalResult, error) {
	return vm.EvaluateWrapped("", source, "")
}

// EvaluateWrapped evaluates prefix+source+suffix as Evaluate does. The
// text is assembled in host scratch, so a doIt the memo holds costs no
// Go string. When the source does not compile on its own either, the
// error is the bare source's, so its position and token are the
// caller's text, not the wrapper's. A compile error is the one error
// that wraps another: "interp: " around "compile DoIt: " and the
// compiler's words, which errors.Unwrap answers (file-in reports those).
func (vm *VM) EvaluateWrapped(prefix, source, suffix string) (EvalResult, error) {
	vm.src = append(append(append(vm.src[:0], prefix...), source...), suffix...)
	vm.doitEnv.class = vm.Specials.UndefinedObject
	m, err := doits.compileBytes(vm.src, &vm.doitEnv)
	if err != nil {
		if _, berr := compiler.CompileExpression(source, &vm.doitEnv); berr != nil {
			err = berr
		}
		return EvalResult{}, fmt.Errorf("interp: %w", fmt.Errorf("compile DoIt: %w", err))
	}
	return vm.runDoIt(m)
}

// runDoIt runs a compiled DoIt: EvaluateWrapped's run half.
func (vm *VM) runDoIt(m *compiler.Method) (EvalResult, error) {
	vm.evalResult = object.Nil
	vm.evalDone.Store(false)
	vm.evalFailed = ""
	vm.hostMu.Lock()
	vm.evalErrSeq = vm.errSeq
	vm.hostMu.Unlock()
	vm.doit = m
	err := vm.Do(vm.startDoItFn)
	vm.doit = nil
	if err != nil {
		return EvalResult{}, err
	}

	reason := vm.M.Run(vm.evalStop)
	res := EvalResult{Value: vm.evalResult, Reason: reason, Failed: vm.evalFailed}
	vm.evalProc = object.Nil
	if reason != firefly.StopUntil && !vm.evalDone.Load() {
		return res, fmt.Errorf("interp: evaluation did not complete: %v", reason)
	}
	if res.Failed != "" {
		return res, fmt.Errorf("interp: %s", res.Failed)
	}
	return res, nil
}

// startDoIt is runDoIt's work, bound once as vm.startDoItFn: materialize
// the doIt and schedule it as the evaluation's Process.
func (vm *VM) startDoIt(p *firefly.Proc) {
	mo := vm.MaterializeMethod(p, vm.doit, vm.Specials.UndefinedObject, "doits")
	proc := vm.NewProcessForMethod(p, mo, object.Nil, UserPriority)
	vm.hostMu.Lock()
	vm.evalProc = proc
	vm.hostMu.Unlock()
	vm.scheduleProcess(p, proc)
}

// ---- The compile memos ----
//
// A compile is immutable host data and a pure function of its source and
// of the answers it got from its compiler.Env, so it is kept: a later
// compile of the same source re-asks the recorded questions of the live
// image and, every answer unchanged, skips the lex/parse/generate.
// Re-asking keeps a memo exact with no invalidation hook (image code can
// rewrite the system dictionary without passing through Go). A source
// keeps one compile per distinct answer list: an accessor such as
// `value ^value` compiles to a different field index in each class of a
// different shape, and a global defined and removed again answers the
// compile made before. The memo has two instances, both serialized
// (Table 3's terms): one per process behind one mutex, never contended
// for long (a lookup copies an entry list out and asks unlocked).
//   - doits holds the doIts Evaluate compiles, file-in's included.
//     Per VM it would compile every request again in each fresh clone:
//     serve_mixed clones 16 tenants a pass, each sent the same 5 catalog
//     requests, and a boot files in the same doIts as the last.
//   - methods holds the methods compileAndInstall installs (file-in,
//     compile:classified:), so every boot after the first compiles
//     nothing.

// doitMemoMax, methodMemoMax and planMemoMax bound the memos: a miss at
// the bound drops the whole table, so a process fed unique sources cannot
// grow without limit. The kernel, macro and session sources are some 540
// methods in 15 files.
const (
	doitMemoMax   = 256
	methodMemoMax = 4096
	planMemoMax   = 64
)

// doits and methods are the process-wide memos of doIts and methods.
var (
	doits   = memo{gen: compiler.CompileExpression, max: doitMemoMax}
	methods = memo{gen: compiler.CompileMethod, max: methodMemoMax}
)

// plans is the process-wide memo of file-in plans: a source's chunks,
// methodsFor: headers and class definitions, as image.FileIn reads them,
// keyed by the source text. A plan is host data, never written once
// published; serialized like methods, so every boot after the first
// reads no source.
var plans struct {
	mu    sync.Mutex
	table map[string]any
	reads int // sources read, for the cold/warm twin
}

// FileInPlan answers the plan read makes of source: read's answer on the
// first ask in the process (or after a miss at the bound), the same one
// ever since.
func FileInPlan(source string, read func(string) any) any {
	plans.mu.Lock()
	pl, ok := plans.table[source]
	plans.mu.Unlock()
	if ok {
		return pl
	}
	pl = read(source)
	plans.mu.Lock()
	defer plans.mu.Unlock()
	if len(plans.table) >= planMemoMax || plans.table == nil {
		plans.table = map[string]any{}
	}
	plans.table[source] = pl
	plans.reads++
	return pl
}

// envAsk is one question a compile put to its Env — IsGlobal(name) when
// global, else InstVarIndex(name) — and the answer it got.
type envAsk struct {
	name   string
	idx    int
	global bool
	ok     bool
}

// askedEnv records the questions a compile asks of env, in order.
type askedEnv struct {
	env  compiler.Env
	asks []envAsk
}

func (e *askedEnv) InstVarIndex(name string) (int, bool) {
	idx, ok := e.env.InstVarIndex(name)
	e.asks = append(e.asks, envAsk{name: name, idx: idx, ok: ok})
	return idx, ok
}

func (e *askedEnv) IsGlobal(name string) bool {
	ok := e.env.IsGlobal(name)
	e.asks = append(e.asks, envAsk{name: name, global: true, ok: ok})
	return ok
}

// compiled is one memoized compile.
type compiled struct {
	m    *compiler.Method // shared by every materialization; never mutated
	asks []envAsk
}

// current reports whether env still answers every recorded question alike.
func (d compiled) current(env compiler.Env) bool {
	for _, a := range d.asks {
		if a.global {
			if env.IsGlobal(a.name) != a.ok {
				return false
			}
		} else if idx, ok := env.InstVarIndex(a.name); idx != a.idx || ok != a.ok {
			return false
		}
	}
	return true
}

// memo maps source text to the compiles gen made from it. mu guards the
// table, never an Env: a lookup copies a source's entry list out and asks
// its questions unlocked, and a list is never written once published.
type memo struct {
	gen   func(source string, env compiler.Env) (*compiler.Method, error)
	max   int
	mu    sync.Mutex
	table map[string][]compiled
	n     int // compiles in table
}

// compile answers source compiled against env, from the memo when env's
// answers allow. A compile error is never memoized.
func (c *memo) compile(source string, env compiler.Env) (*compiler.Method, error) {
	c.mu.Lock()
	ds := c.table[source]
	c.mu.Unlock()
	if m := currentOf(ds, env); m != nil {
		return m, nil
	}
	return c.add(source, env)
}

// compileBytes is compile of string(src), which it builds only on a miss.
func (c *memo) compileBytes(src []byte, env compiler.Env) (*compiler.Method, error) {
	c.mu.Lock()
	ds := c.table[string(src)]
	c.mu.Unlock()
	if m := currentOf(ds, env); m != nil {
		return m, nil
	}
	return c.add(string(src), env)
}

// currentOf answers the first of ds that env still answers alike, or nil.
func currentOf(ds []compiled, env compiler.Env) *compiler.Method {
	for _, d := range ds {
		if d.current(env) {
			return d.m
		}
	}
	return nil
}

// add compiles source against env and memoizes the compile.
func (c *memo) add(source string, env compiler.Env) (*compiler.Method, error) {
	asked := askedEnv{env: env}
	m, err := c.gen(source, &asked)
	if err != nil {
		return nil, err
	}
	d := compiled{m, asked.asks}
	c.mu.Lock()
	defer c.mu.Unlock()
	ds := c.table[source]
	if slices.ContainsFunc(ds, func(o compiled) bool { return slices.Equal(o.asks, d.asks) }) {
		return m, nil // a concurrent miss got here first
	}
	if c.n >= c.max || c.table == nil {
		c.table = map[string][]compiled{}
		c.n = 0
		ds = nil
	}
	c.table[source] = append(ds[:len(ds):len(ds)], d)
	c.n++
	return m, nil
}

// StartInterpreters installs every interpreter's run loop on its
// processor. Call once, after Genesis and file-in.
func (vm *VM) StartInterpreters() {
	for i, in := range vm.Interps {
		vm.M.Start(i, func(p *firefly.Proc) { in.Run() })
	}
}

// Disassemble renders a CompiledMethod's bytecode (the decompiler behind
// the decompile benchmark).
func (vm *VM) Disassemble(method object.OOP) string {
	_, text := vm.disassemble(nil, method)
	return string(text)
}

// disassemble renders method in buf's storage: the code is copied out
// first and the text appended after it. It answers the storage, to be
// passed in again, and the text.
func (vm *VM) disassemble(buf []byte, method object.OOP) (storage, text []byte) {
	h := vm.H
	buf = h.AppendBytes(buf[:0], h.Fetch(method, CMBytes))
	n := len(buf)
	lits := h.Fetch(method, CMLiterals)
	buf = append(h.AppendBytes(buf, h.Fetch(method, CMSelector)), '\n')
	buf = bytecode.AppendDisassembly(buf, buf[:n:n], func(dst []byte, i int) []byte {
		return vm.appendDescription(dst, h.Fetch(lits, i))
	})
	return buf, buf[n:]
}
