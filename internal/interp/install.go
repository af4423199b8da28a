package interp

import (
	"fmt"
	"strings"
	"sync/atomic"

	"mst/internal/bytecode"
	"mst/internal/compiler"
	"mst/internal/firefly"
	"mst/internal/heap"
	"mst/internal/object"
)

// classEnv adapts a class to the compiler's name-resolution interface.
type classEnv struct {
	vm       *VM
	instVars []string
}

// EnvForClass builds a compiler.Env resolving instance variables from
// the class's (inherited) declaration order and globals from the system
// dictionary; capitalized unknowns auto-declare as globals so kernel
// sources may forward-reference classes.
func (vm *VM) EnvForClass(class object.OOP) compiler.Env {
	return classEnv{vm: vm, instVars: vm.InstVarNamesOf(class)}
}

// InstVarNamesOf returns the full (superclass-first) instance variable
// list of class.
func (vm *VM) InstVarNamesOf(class object.OOP) []string {
	if size, _ := DecodeFormat(vm.H.Fetch(class, ClsFormat)); size == 0 {
		return nil // no named fields anywhere up the chain (every doIt's class)
	}
	var chain []object.OOP
	for c := class; c != object.Nil && c != object.Invalid; c = vm.H.Fetch(c, ClsSuperclass) {
		chain = append(chain, c)
	}
	var names []string
	for i := len(chain) - 1; i >= 0; i-- {
		ivn := vm.H.Fetch(chain[i], ClsInstVarNames)
		n := vm.H.FieldCount(ivn)
		for j := 0; j < n; j++ {
			names = append(names, vm.GoString(vm.H.Fetch(ivn, j)))
		}
	}
	return names
}

func (e classEnv) InstVarIndex(name string) (int, bool) {
	for i, n := range e.instVars {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

func (e classEnv) IsGlobal(name string) bool {
	if e.vm.SysDictAt(name) != object.Invalid || e.vm.sysDictFind(name) != object.Invalid {
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
		vm.vmError("unknown literal kind %d", l.Kind)
		return object.Nil
	}
}

// CompileAndInstall compiles source as a method of class and installs it
// in the class's method dictionary, flushing the method caches. MAY GC.
func (vm *VM) CompileAndInstall(p *firefly.Proc, class object.OOP, source, category string) (object.OOP, error) {
	return vm.compileAndInstall(p, class, vm.EnvForClass(class), source, category)
}

// compileAndInstall is CompileAndInstall against env, which must be
// class's (EnvForClass). MAY GC.
func (vm *VM) compileAndInstall(p *firefly.Proc, class object.OOP, env compiler.Env, source, category string) (object.OOP, error) {
	hs := vm.H.Handles(p)
	defer hs.Close()
	ch := hs.Add(class)
	m, err := compiler.CompileMethod(source, env)
	if err != nil {
		return object.Nil, err
	}
	mo := vm.MaterializeMethod(p, m, ch.Get(), category)
	moH := hs.Add(mo)
	vm.installInDict(p, ch, moH)
	return moH.Get(), nil
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
		vm.growMethodDict(p, classH.Get())
		dict = h.Fetch(classH.Get(), ClsMethodDict)
		keys = h.Fetch(dict, MDKeys)
		n = h.FieldCount(keys)
	}
	sel := h.Fetch(moH.Get(), CMSelector)
	values := h.Fetch(dict, MDValues)
	idx := int(h.IdentityHash(sel)) & (n - 1)
	for i := 0; i < n; i++ {
		j := (idx + i) & (n - 1)
		k := h.Fetch(keys, j)
		if k == sel {
			h.Store(p, values, j, moH.Get()) // redefinition
			vm.flushAllCaches()
			return
		}
		if k == object.Nil {
			h.Store(p, keys, j, sel)
			h.Store(p, values, j, moH.Get())
			h.StoreNoCheck(dict, MDTally, object.FromInt(int64(tally+1)))
			vm.flushAllCaches()
			return
		}
	}
	vm.vmError("method dictionary full after grow")
}

func (vm *VM) growMethodDict(p *firefly.Proc, class object.OOP) {
	h := vm.H
	hs := h.Handles(p)
	defer hs.Close()
	ch := hs.Add(class)

	oldDict := h.Fetch(class, ClsMethodDict)
	oldKeysH := hs.Add(h.Fetch(oldDict, MDKeys))
	oldValsH := hs.Add(h.Fetch(oldDict, MDValues))
	n := h.FieldCount(oldKeysH.Get())

	newKeysH := hs.Add(vm.NewArray(p, n*2))
	newValsH := hs.Add(vm.NewArray(p, n*2))
	dictH := hs.Add(vm.allocFields(p, vm.Specials.MethodDictionary, MethodDictInstSize))
	h.StoreNoCheck(dictH.Get(), MDTally, h.Fetch(oldDict, MDTally))
	h.Store(p, dictH.Get(), MDKeys, newKeysH.Get())
	h.Store(p, dictH.Get(), MDValues, newValsH.Get())

	for i := 0; i < n; i++ {
		k := h.Fetch(oldKeysH.Get(), i)
		if k == object.Nil {
			continue
		}
		v := h.Fetch(oldValsH.Get(), i)
		idx := int(h.IdentityHash(k)) & (2*n - 1)
		for j := 0; j < 2*n; j++ {
			s := (idx + j) & (2*n - 1)
			if h.Fetch(newKeysH.Get(), s) == object.Nil {
				h.Store(p, newKeysH.Get(), s, k)
				h.Store(p, newValsH.Get(), s, v)
				break
			}
		}
	}
	h.Store(p, ch.Get(), ClsMethodDict, dictH.Get())
}

func (vm *VM) flushAllCaches() {
	if vm.sharedCache != nil {
		*vm.sharedCache = [cacheSize]mcEntry{}
	}
	for _, in := range vm.Interps {
		in.flushCache()
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
// parked mid-acquisition.
func (vm *VM) Do(f func(p *firefly.Proc)) error {
	// done is written by interpreter 0 and read by the stop predicate,
	// which runs at every scheduling decision and in parallel host mode
	// at every processor's safepoints — hence atomic, and no mutex.
	var done atomic.Bool
	vm.pendingWork = append(vm.pendingWork, func(p *firefly.Proc) {
		f(p)
		done.Store(true)
	})
	reason := vm.M.Run(func() bool { return done.Load() || vm.dead.Load() })
	if vm.dead.Load() {
		return fmt.Errorf("interp: machine dead: %s", vm.evalFailed)
	}
	if !done.Load() {
		// Run stopped (time limit) first. A closure interpreter 0 never
		// reached is still queued, alone (only Do appends): drop it.
		vm.pendingWork = nil
		return fmt.Errorf("interp: queued work did not run: %v", reason)
	}
	return nil
}

// InstallSource compiles method source against env, class's environment
// (EnvForClass; file-in builds one per methodsFor: section), and
// installs it into class, safely from Go, through the machine loop.
func (vm *VM) InstallSource(class object.OOP, env compiler.Env, source, category string) error {
	var installErr error
	err := vm.Do(func(p *firefly.Proc) {
		_, installErr = vm.compileAndInstall(p, class, env, source, category)
	})
	if err != nil {
		return err
	}
	return installErr
}

// Evaluate compiles source as a DoIt, runs it as a Process at
// UserPriority, and drives the machine until it completes. Background
// Processes spawned earlier keep running during the evaluation. Only one
// Evaluate may be active at a time.
func (vm *VM) Evaluate(source string) (EvalResult, error) {
	m, err := vm.compileDoIt(source)
	if err != nil {
		return EvalResult{}, fmt.Errorf("interp: compile DoIt: %w", err)
	}
	return vm.RunDoIt(m)
}

// RunDoIt runs a compiled DoIt as Evaluate does, past the doIt memo: for
// a caller that generated m from a parse it already had (file-in), against
// the DoIt environment (EnvForClass of UndefinedObject).
func (vm *VM) RunDoIt(m *compiler.Method) (EvalResult, error) {
	vm.evalResult = object.Nil
	vm.evalDone.Store(false)
	vm.evalFailed = ""
	if err := vm.Do(func(p *firefly.Proc) {
		mo := vm.MaterializeMethod(p, m, vm.Specials.UndefinedObject, "doits")
		proc := vm.NewProcessForMethod(p, mo, object.Nil, UserPriority)
		vm.hostMu.Lock()
		vm.evalProc = proc
		vm.hostMu.Unlock()
		vm.scheduleProcess(p, proc)
	}); err != nil {
		return EvalResult{}, err
	}

	reason := vm.M.Run(vm.evalDone.Load)
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

// ---- The doIt memo ----
//
// A compiled doIt is immutable host data and a pure function of its
// source and of the answers its compile got from the compiler.Env, so a VM
// keeps them: a later Evaluate of the same source re-asks the recorded
// questions of the live image and, every answer unchanged, skips the
// lex/parse/generate. Re-asking keeps the memo exact with no invalidation
// hook (image code can rewrite the system dictionary without passing
// through Go). Replicated state: per VM, so a tenant's one executor needs
// no host lock; empty in a clone, absent from a snapshot.

// doitMemoMax bounds the memo: at the bound the whole map is dropped, so
// a long-lived VM fed unique sources cannot grow without limit.
const doitMemoMax = 256

// envAsk is one question a compile put to its Env — IsGlobal(name) when
// global, else InstVarIndex(name) — and the answer it got.
type envAsk struct {
	name   string
	global bool
	idx    int
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

// doit is one memoized compile.
type doit struct {
	m    *compiler.Method // shared by every materialization; never mutated
	asks []envAsk
}

// current reports whether env still answers every recorded question alike.
func (d doit) current(env compiler.Env) bool {
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

type doitMemo map[string]doit

// compile answers source compiled as a doIt against env, from the memo
// when env's answers allow. A compile error is never memoized.
func (c doitMemo) compile(source string, env compiler.Env) (*compiler.Method, error) {
	if d, ok := c[source]; ok && d.current(env) {
		return d.m, nil
	}
	asked := askedEnv{env: env}
	m, err := compiler.CompileExpression(source, &asked)
	if err != nil {
		return nil, err
	}
	if len(c) >= doitMemoMax {
		clear(c)
	}
	c[source] = doit{m, asked.asks}
	return m, nil
}

func (vm *VM) compileDoIt(source string) (*compiler.Method, error) {
	return vm.doits.compile(source, vm.EnvForClass(vm.Specials.UndefinedObject))
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
	h := vm.H
	code := h.Bytes(h.Fetch(method, CMBytes))
	lits := h.Fetch(method, CMLiterals)
	sel := h.Fetch(method, CMSelector)
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", vm.SymbolName(sel))
	b.WriteString(bytecode.Disassemble(code, func(i int) string {
		return vm.DescribeOOP(h.Fetch(lits, i))
	}))
	return b.String()
}
