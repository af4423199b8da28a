// Package interp implements the Multiprocessor Smalltalk virtual
// machine: the replicated bytecode interpreter, method lookup with
// per-processor (or serialized shared) method caches, heap-allocated
// contexts recycled through per-processor (or serialized global) free
// lists, the Smalltalk Process/Semaphore scheduler with its single
// shared ready queue, and the primitive set.
//
// The package applies the paper's three strategies exactly where MS did
// (Table 3): serialization for allocation, garbage collection, entry
// tables, scheduling, and I/O; replication for the interpretation
// process, the method caches, and the free context lists; and
// reorganization for the scheduler's activeProcess (replaced by the
// thisProcess and canRun: primitives; running Processes stay on the
// ready queue).
package interp

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"mst/internal/display"
	"mst/internal/firefly"
	"mst/internal/heap"
	"mst/internal/object"
	"mst/internal/sanitize"
	"mst/internal/trace"
)

// CachePolicy selects the method-lookup cache organization.
type CachePolicy int

const (
	// CacheReplicated is MS's final design: one cache per processor.
	CacheReplicated CachePolicy = iota
	// CacheSharedLocked is MS's first attempt: a single cache behind a
	// lock, which "was causing it to run much too slowly".
	CacheSharedLocked
)

func (c CachePolicy) String() string {
	if c == CacheSharedLocked {
		return "shared-locked"
	}
	return "replicated"
}

// ICPolicy selects the per-send-site inline-cache organization — the
// Deutsch–Schiffman lineage the paper's successors adopted. It is an
// extension beyond the paper: the default (paper-faithful) configuration
// keeps it off, so Table 2 / Figure 2 numbers are unchanged.
type ICPolicy int

const (
	// ICOff disables inline caches: every send goes straight to the
	// per-processor (or shared) method cache. The paper's design.
	ICOff ICPolicy = iota
	// ICMono gives each send site one monomorphic entry (a classic
	// Deutsch–Schiffman inline cache): a class mismatch rebinds it.
	ICMono
	// ICPoly upgrades a site to a small polymorphic cache (up to
	// icWays class→method entries) on class mismatch, Hölzle-style.
	ICPoly
)

func (p ICPolicy) String() string {
	switch p {
	case ICMono:
		return "monomorphic"
	case ICPoly:
		return "polymorphic"
	}
	return "off"
}

// FreeCtxPolicy selects the free-context-list organization.
type FreeCtxPolicy int

const (
	// FreeCtxPerProcessor is MS's final design (worst-case overhead 65%).
	FreeCtxPerProcessor FreeCtxPolicy = iota
	// FreeCtxSharedLocked is the serialized design that profiling showed
	// to be a bottleneck (worst-case overhead 160%).
	FreeCtxSharedLocked
)

func (c FreeCtxPolicy) String() string {
	if c == FreeCtxSharedLocked {
		return "shared-locked"
	}
	return "per-processor"
}

// Config configures the virtual machine.
type Config struct {
	// MSMode enables the multiprocessor support (virtual locks, cache
	// replication overhead). False models baseline BS: the identical
	// interpreter with all multiprocessor support compiled out.
	MSMode bool
	// MethodCache selects the cache strategy (paper §3.2).
	MethodCache CachePolicy
	// CacheWays selects the method cache's set associativity: 1 (the
	// paper's direct-mapped cache, the default — 0 normalizes to 1) or
	// 2 (an extension: a second probe of the adjacent entry converts
	// many conflict misses into hits).
	CacheWays int
	// InlineCache selects the per-send-site inline-cache policy (an
	// extension; off by default for paper fidelity).
	InlineCache ICPolicy
	// FreeContexts selects the free-list strategy (paper §3.2).
	FreeContexts FreeCtxPolicy
	// QuantumBytecodes bounds one interpreter quantum.
	QuantumBytecodes int
	// JIT enables the msjit tier (an extension; off by default): the
	// profitable straight-line bytecode runs of hot methods are fused
	// into superinstruction closures that charge the identical virtual
	// costs through the same cost table, so every virtual time and
	// counter is bit-identical — only host time changes.
	JIT bool
	// PanicOnVMError makes internal VM errors panic (tests); otherwise
	// they are recorded and the offending Process is terminated.
	PanicOnVMError bool
	// Parallel prepares the VM for parallel host mode (the machine's
	// SetParallel): per-interpreter statistics are read locally by the
	// stat primitive, symbol interning allocates outside the intern
	// mutex, and idle interpreters yield the OS thread.
	Parallel bool
}

// DefaultConfig returns the MS production configuration.
func DefaultConfig() Config {
	return Config{
		MSMode:           true,
		MethodCache:      CacheReplicated,
		FreeContexts:     FreeCtxPerProcessor,
		QuantumBytecodes: 400,
		PanicOnVMError:   true,
	}
}

// Field layouts of the kernel objects. Classes are ordinary objects, so
// Smalltalk code browses them with the same accessors the VM uses.
const (
	ClsSuperclass   = 0
	ClsMethodDict   = 1
	ClsFormat       = 2 // SmallInteger: instSize<<3 | kind
	ClsName         = 3
	ClsInstVarNames = 4
	ClsOrganization = 5
	ClsSubclasses   = 6
	ClsCategory     = 7
	ClsComment      = 8
	ClsThisClass    = 9 // metaclasses: the class described
	ClassInstSize   = 10

	MDTally            = 0
	MDKeys             = 1
	MDValues           = 2
	MethodDictInstSize = 3

	CMHeader       = 0
	CMLiterals     = 1
	CMBytes        = 2
	CMSelector     = 3
	CMMethodClass  = 4
	CMCategory     = 5
	CMSource       = 6
	MethodInstSize = 7

	CtxSender   = 0
	CtxPC       = 1
	CtxSP       = 2
	CtxMethod   = 3
	CtxReceiver = 4
	CtxFixed    = 5

	BCtxCaller    = 0
	BCtxPC        = 1
	BCtxSP        = 2
	BCtxHome      = 3
	BCtxInfo      = 4 // SmallInteger: nargs | firstArgTemp<<8
	BCtxInitialPC = 5
	BCtxFixed     = 6

	PrSuspendedContext = 0
	PrPriority         = 1
	PrMyList           = 2
	PrNextLink         = 3
	PrState            = 4
	PrName             = 5
	ProcessInstSize    = 6

	LLFirst            = 0
	LLLast             = 1
	LinkedListInstSize = 2

	SemFirst    = 0
	SemLast     = 1
	SemExcess   = 2
	SemInstSize = 3

	SchedLists    = 0
	SchedActive   = 1
	SchedInstSize = 2

	AsKey               = 0
	AsValue             = 1
	AssociationInstSize = 2

	SDTally         = 0
	SDArray         = 1
	SysDictInstSize = 2

	MsgSelector     = 0
	MsgArgs         = 1
	MessageInstSize = 2

	CharValue    = 0
	CharInstSize = 1
)

// Context sizing: contexts come in two sizes, like Smalltalk-80's small
// and large contexts, and are recycled through free lists.
const (
	SmallCtxSlots = 16
	LargeCtxSlots = 56
	BlockCtxSlots = 24
)

// Process states.
const (
	StateSuspended  = 0
	StateReady      = 1
	StateRunning    = 2
	StateBlocked    = 3
	StateTerminated = 4
)

// NumPriorities is the number of scheduler priority levels (1..8).
const NumPriorities = 8

// UserPriority is the priority DoIt processes run at.
const UserPriority = 5

// ClassKind describes instance storage layout.
type ClassKind int

const (
	KindFixed       ClassKind = 0 // named fields only
	KindIdxPointers ClassKind = 1 // named fields + indexable pointers
	KindIdxBytes    ClassKind = 2 // indexable raw bytes
	KindIdxChars    ClassKind = 3 // indexable bytes presented as Characters
	KindIdxWords    ClassKind = 4 // indexable raw 64-bit words
)

// EncodeFormat packs a class format SmallInteger.
func EncodeFormat(instSize int, kind ClassKind) object.OOP {
	return object.FromInt(int64(instSize)<<3 | int64(kind))
}

// DecodeFormat unpacks a class format SmallInteger.
func DecodeFormat(f object.OOP) (instSize int, kind ClassKind) {
	v := f.Int()
	return int(v >> 3), ClassKind(v & 7)
}

// Method header packing (a SmallInteger in CMHeader). Send-site counts
// above the 12-bit field saturate to the maximum; the inline-cache layer
// trusts its own bytecode scan for the true site list and uses the
// header count only as an allocation hint and a zero-site fast path
// (a saturated count is still nonzero, so such methods stay cached).
func encodeMethodHeader(nargs, ntemps, maxStack, prim int, clean bool, sendSites int) object.OOP {
	if sendSites > 0xFFF {
		sendSites = 0xFFF
	}
	v := int64(nargs) | int64(ntemps)<<8 | int64(maxStack)<<20 | int64(prim)<<32
	if clean {
		v |= 1 << 44
	}
	v |= int64(sendSites) << 45
	return object.FromInt(v)
}

func headerNumArgs(h object.OOP) int   { return int(h.Int() & 0xFF) }
func headerNumTemps(h object.OOP) int  { return int(h.Int() >> 8 & 0xFFF) }
func headerMaxStack(h object.OOP) int  { return int(h.Int() >> 20 & 0xFFF) }
func headerPrim(h object.OOP) int      { return int(h.Int() >> 32 & 0xFFF) }
func headerClean(h object.OOP) bool    { return h.Int()>>44&1 != 0 }
func headerSendSites(h object.OOP) int { return int(h.Int() >> 45 & 0xFFF) }

// Specials holds the well-known objects; every field is a GC root.
type Specials struct {
	// Core classes.
	Object, Behavior, Class, Metaclass          object.OOP
	UndefinedObject, Boolean, TrueCls, FalseCls object.OOP
	SmallInteger, Float, Character              object.OOP
	String, Symbol, Array, ByteArray            object.OOP
	Association, Dictionary, SystemDictionary   object.OOP
	MethodDictionary, CompiledMethod            object.OOP
	MethodContext, BlockContext                 object.OOP
	Process, Semaphore, LinkedList              object.OOP
	ProcessorScheduler, Message, Delay          object.OOP
	Magnitude, Number                           object.OOP
	Collection, SequenceableCollection          object.OOP
	ArrayedCollection                           object.OOP

	// Well-known instances.
	SmalltalkDict object.OOP // the SystemDictionary instance
	Scheduler     object.OOP // the ProcessorScheduler instance
	InputSem      object.OOP // semaphore signalled on input events

	// Selector symbols the VM sends itself.
	SymDNU          object.OOP // doesNotUnderstand:
	SymMustBeBool   object.OOP
	SymCannotReturn object.OOP
	SymDoIt         object.OOP
}

// Stats counts interpreter activity.
type Stats struct {
	Bytecodes        uint64
	Sends            uint64
	CacheHits        uint64
	CacheMisses      uint64
	ICHits           uint64 // inline-cache hits (per-send-site, extension)
	ICMisses         uint64 // inline-cache misses (cold, conflict, or class change)
	ICFills          uint64 // inline-cache entry (re)bindings
	ICPolySites      uint64 // sites upgraded monomorphic → polymorphic
	ICMegaSites      uint64 // polymorphic sites retired as megamorphic
	DictProbes       uint64
	DNUs             uint64
	Primitives       uint64
	PrimFailures     uint64
	ContextsAlloc    uint64
	ContextsRecycled uint64
	ProcessSwitches  uint64
	SemWaits         uint64
	SemSignals       uint64
	VMErrors         uint64
	JITCompiles      uint64 // methods template-compiled into the msjit tier
	JITDeopts        uint64 // mid-method bailouts back to the interpreter
	JITBytecodes     uint64 // bytecodes executed as compiled closures
}

// add accumulates o into s (used to sum the per-interpreter counters).
func (s *Stats) add(o *Stats) {
	s.Bytecodes += o.Bytecodes
	s.Sends += o.Sends
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.ICHits += o.ICHits
	s.ICMisses += o.ICMisses
	s.ICFills += o.ICFills
	s.ICPolySites += o.ICPolySites
	s.ICMegaSites += o.ICMegaSites
	s.DictProbes += o.DictProbes
	s.DNUs += o.DNUs
	s.Primitives += o.Primitives
	s.PrimFailures += o.PrimFailures
	s.ContextsAlloc += o.ContextsAlloc
	s.ContextsRecycled += o.ContextsRecycled
	s.ProcessSwitches += o.ProcessSwitches
	s.SemWaits += o.SemWaits
	s.SemSignals += o.SemSignals
	s.VMErrors += o.VMErrors
	s.JITCompiles += o.JITCompiles
	s.JITDeopts += o.JITDeopts
	s.JITBytecodes += o.JITBytecodes
}

// VM is the shared virtual machine state: one heap, one scheduler, one
// image, and one interpreter per virtual processor.
type VM struct {
	Cfg     Config
	M       *firefly.Machine
	H       *heap.Heap
	Disp    *display.Display
	Sensor  *display.Sensor
	Interps []*Interp

	Specials Specials

	schedLock *firefly.Spinlock
	cacheLock *firefly.RWSpinlock // CacheSharedLocked only (two-level: readers overlap)
	freeLock  *firefly.Spinlock   // FreeCtxSharedLocked only

	sharedCache   *[cacheSize]mcEntry // CacheSharedLocked only
	sharedFreeCtx [2][]object.OOP     // small/large shared free lists
	charTable     []object.OOP        // ASCII characters, roots

	// Symbol interning: slice is the root set, map caches name→index.
	symbolList []object.OOP
	symbolIdx  map[string]int

	// Pre-interned special-send selectors, indexed by op-FirstSpecialSend.
	specialSelectors []object.OOP

	// Input events transferred from the sensor, awaiting consumption
	// by the Sensor primitives (device-level data; no oops).
	inputQueue []display.Event

	// Delay queue: semaphores to signal at virtual times, sorted by wake
	// time. nextWake is the head's wake time, max-int when the list is
	// empty, published under devMu so a poll can test it without.
	delays   []delayEntry
	nextWake atomic.Int64

	// Evaluation rendezvous (one evaluation at a time). evalDone (and
	// dead, below) are what Run's stop predicates read at every scheduling
	// decision, so they are atomic flags, set after the results they
	// announce are written.
	evalProc   object.OOP
	evalResult object.OOP
	evalDone   atomic.Bool
	evalFailed string

	// doits memoizes compiled doIts by source (install.go).
	doits doitMemo

	// pendingWork holds Go-side mutating operations (method installs,
	// evaluation setup) to be executed by interpreter 0 *inside* the
	// machine loop: heap mutation from the host main goroutine would
	// race the simulated processors when they are suspended mid-lock.
	pendingWork []func(p *firefly.Proc)
	dead        atomic.Bool // an interpreter died (panic)

	// snapshotFunc writes an image snapshot (installed by the image
	// layer; used by primitive 139).
	snapshotFunc SnapshotFunc

	// Profiler state (see profile.go): prof is nil unless EnableProfiler
	// was called; the name caches map oops to rendered Go strings and
	// are flushed before every scavenge because oops move. allocProf
	// and its method-oop→site-id cache are the allocation-site
	// profiler's state, nil unless EnableAllocProfiler was called.
	prof          *trace.Profiler
	methodNames   map[object.OOP]string
	selectorNames map[object.OOP]string
	allocProf     *trace.AllocProfiler
	allocSiteIDs  map[object.OOP]int

	// san is the machine's invariant checker (nil when sanitizing is
	// off), cached like each interpreter's rec.
	san *sanitize.Checker

	// par mirrors Cfg.Parallel. The three host mutexes below are pure
	// host machinery (they never touch virtual time, so the sanitizer's
	// determinism sentinel holds); they exist because in parallel host
	// mode the interpreters really do run concurrently. Their critical
	// sections are brief and never allocate — allocation can stop the
	// world, and a processor blocked on a host mutex is not at a
	// safepoint, so allocating under one would deadlock the rendezvous.
	par    bool
	hostMu sync.Mutex // evaluation rendezvous (evalProc/Result/Failed), errors
	devMu  sync.Mutex // delays, inputQueue
	symMu  sync.Mutex // symbolList, symbolIdx

	// stats holds only VM-level counters (VMErrors); the per-activity
	// counters live on each Interp and are summed by Stats().
	stats  Stats
	errors []string
}

type delayEntry struct {
	wake firefly.Time
	sem  object.OOP
}

// New creates a virtual machine on m with the given heap. Call Genesis
// before use.
func New(m *firefly.Machine, h *heap.Heap, cfg Config) *VM {
	if cfg.QuantumBytecodes <= 0 {
		cfg.QuantumBytecodes = 400
	}
	if cfg.CacheWays != 2 {
		cfg.CacheWays = 1
	}
	vm := &VM{
		Cfg:       cfg,
		M:         m,
		H:         h,
		Disp:      display.NewDisplay(m, cfg.MSMode),
		Sensor:    display.NewSensor(m, cfg.MSMode),
		schedLock: m.NewSpinlock("scheduler", cfg.MSMode),
		cacheLock: m.NewRWSpinlock("method-cache", cfg.MSMode && cfg.MethodCache == CacheSharedLocked),
		freeLock:  m.NewSpinlock("free-contexts", cfg.MSMode && cfg.FreeContexts == FreeCtxSharedLocked),
		symbolIdx: map[string]int{},
		doits:     doitMemo{},
		san:       m.Sanitizer(),
		par:       cfg.Parallel,
	}
	vm.nextWake.Store(math.MaxInt64)
	if cfg.MethodCache == CacheSharedLocked {
		vm.sharedCache = new([cacheSize]mcEntry)
	}
	// Table-3 serialization rows owned by the interpreter: the
	// shared ready queue always; the shared method cache and shared
	// free context lists only under their serialized policies (the
	// replicated defaults are validated by ownership hooks instead).
	vm.san.RegisterGuard("ready-queue", "scheduler")
	if cfg.MethodCache == CacheSharedLocked {
		vm.san.RegisterGuard("shared-method-cache", "method-cache")
	}
	if cfg.FreeContexts == FreeCtxSharedLocked {
		vm.san.RegisterGuard("shared-free-contexts", "free-contexts")
	}

	// Register roots.
	h.AddRootFunc(func(visit func(*object.OOP)) {
		for i := range vm.symbolList {
			visit(&vm.symbolList[i])
		}
		for i := range vm.charTable {
			visit(&vm.charTable[i])
		}
		for i := range vm.delays {
			visit(&vm.delays[i].sem)
		}
		for i := range vm.specialSelectors {
			visit(&vm.specialSelectors[i])
		}
		visit(&vm.evalProc)
		visit(&vm.evalResult)
		visitSpecials(&vm.Specials, visit)
	})
	h.OnPreScavenge(func() {
		// Method caches and plan tables hold raw oops keyed by address:
		// flush. The free context lists are not roots; drop them too.
		if vm.sharedCache != nil {
			for i := range vm.sharedCache {
				vm.sharedCache[i] = mcEntry{}
			}
		}
		for _, in := range vm.Interps {
			in.flushCache()
			in.flushPlans()
		}
		vm.sharedFreeCtx[0] = vm.sharedFreeCtx[0][:0]
		vm.sharedFreeCtx[1] = vm.sharedFreeCtx[1][:0]
	})
	h.OnPostScavenge(func() {
		// The interpreters' register roots were updated by the move:
		// re-key the (persistent) inline caches and re-plan the method
		// each interpreter is currently executing.
		for _, in := range vm.Interps {
			in.rekeyIC()
			in.refreshCode()
		}
	})

	for i := 0; i < m.NumProcs(); i++ {
		in := newInterp(vm, m.Proc(i))
		vm.Interps = append(vm.Interps, in)
	}
	return vm
}

func visitSpecials(s *Specials, visit func(*object.OOP)) {
	slots := []*object.OOP{
		&s.Object, &s.Behavior, &s.Class, &s.Metaclass,
		&s.UndefinedObject, &s.Boolean, &s.TrueCls, &s.FalseCls,
		&s.SmallInteger, &s.Float, &s.Character,
		&s.String, &s.Symbol, &s.Array, &s.ByteArray,
		&s.Association, &s.Dictionary, &s.SystemDictionary,
		&s.MethodDictionary, &s.CompiledMethod,
		&s.MethodContext, &s.BlockContext,
		&s.Process, &s.Semaphore, &s.LinkedList,
		&s.ProcessorScheduler, &s.Message, &s.Delay,
		&s.Magnitude, &s.Number,
		&s.Collection, &s.SequenceableCollection, &s.ArrayedCollection,
		&s.SmalltalkDict, &s.Scheduler, &s.InputSem,
		&s.SymDNU, &s.SymMustBeBool, &s.SymCannotReturn, &s.SymDoIt,
	}
	for _, p := range slots {
		visit(p)
	}
}

// Stats returns a snapshot of interpreter statistics: the VM-level
// counters plus the sum of every interpreter's replicated counters.
// Callers read it while the machine is stopped.
func (vm *VM) Stats() Stats {
	s := vm.stats
	for _, in := range vm.Interps {
		s.add(&in.stats)
	}
	return s
}

// Errors returns VM-level error reports (empty in a healthy run).
func (vm *VM) Errors() []string {
	vm.hostMu.Lock()
	defer vm.hostMu.Unlock()
	return vm.errors
}

// vmError records an internal error; with PanicOnVMError it panics.
func (vm *VM) vmError(format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	vm.hostMu.Lock()
	vm.stats.VMErrors++
	vm.errors = append(vm.errors, msg)
	vm.hostMu.Unlock()
	if vm.Cfg.PanicOnVMError {
		panic("interp: " + msg)
	}
}

// ---- Object construction helpers ----

// ClassOf maps any oop to its class, giving SmallIntegers their class.
func (vm *VM) ClassOf(o object.OOP) object.OOP {
	if o.IsInt() {
		return vm.Specials.SmallInteger
	}
	return vm.H.ClassOf(o)
}

// InternSymbol returns the unique Symbol oop for name. MAY ALLOCATE on
// first interning (and therefore may scavenge). The symbol is allocated
// *outside* symMu — allocation can stop the world, and a processor
// blocked on symMu is not at a safepoint — so two processors racing on
// the same fresh name may both allocate; the loser's copy is garbage
// and the table keeps one winner. No safepoint lies between the
// allocation and the table insert, so the raw oop cannot go stale.
func (vm *VM) InternSymbol(p *firefly.Proc, name string) object.OOP {
	vm.symMu.Lock()
	if i, ok := vm.symbolIdx[name]; ok {
		sym := vm.symbolList[i]
		vm.symMu.Unlock()
		return sym
	}
	vm.symMu.Unlock()
	sym := vm.allocString(p, vm.Specials.Symbol, name)
	vm.symMu.Lock()
	if i, ok := vm.symbolIdx[name]; ok {
		sym = vm.symbolList[i]
	} else {
		vm.symbolIdx[name] = len(vm.symbolList)
		vm.symbolList = append(vm.symbolList, sym)
	}
	vm.symMu.Unlock()
	return sym
}

// SymbolName returns the Go string of a Symbol (or String).
func (vm *VM) SymbolName(sym object.OOP) string {
	return string(vm.H.Bytes(sym))
}

func (vm *VM) allocString(p *firefly.Proc, class object.OOP, s string) object.OOP {
	b := []byte(s)
	var o object.OOP
	if p == nil {
		o = vm.H.AllocateNoGC(class, len(b), object.FmtBytes)
	} else {
		o = vm.H.Allocate(p, class, len(b), object.FmtBytes)
	}
	vm.H.WriteBytes(o, b)
	return o
}

// NewString allocates a String with the given contents. MAY GC.
func (vm *VM) NewString(p *firefly.Proc, s string) object.OOP {
	return vm.allocString(p, vm.Specials.String, s)
}

// allocFields allocates a pointers object, via the no-GC path during
// bootstrap (p == nil).
func (vm *VM) allocFields(p *firefly.Proc, class object.OOP, n int) object.OOP {
	if p == nil {
		return vm.H.AllocateNoGC(class, n, object.FmtPointers)
	}
	return vm.H.Allocate(p, class, n, object.FmtPointers)
}

// NewArray allocates an Array of n nil slots. MAY GC.
func (vm *VM) NewArray(p *firefly.Proc, n int) object.OOP {
	return vm.allocFields(p, vm.Specials.Array, n)
}

// NewFloat allocates a boxed Float. MAY GC.
func (vm *VM) NewFloat(p *firefly.Proc, f float64) object.OOP {
	o := vm.H.Allocate(p, vm.Specials.Float, 1, object.FmtWords)
	vm.H.StoreWord(o, 0, floatBits(f))
	return o
}

// FloatValue reads a boxed Float.
func (vm *VM) FloatValue(o object.OOP) float64 { return bitsToFloat(vm.H.FetchWord(o, 0)) }

// CharFor returns the (cached) Character object for r. MAY GC for
// characters outside the cached range.
func (vm *VM) CharFor(p *firefly.Proc, r rune) object.OOP {
	if int(r) >= 0 && int(r) < len(vm.charTable) {
		return vm.charTable[r]
	}
	c := vm.H.Allocate(p, vm.Specials.Character, CharInstSize, object.FmtPointers)
	vm.H.StoreNoCheck(c, CharValue, object.FromInt(int64(r)))
	return c
}

// CharValueOf returns the code point of a Character object.
func (vm *VM) CharValueOf(c object.OOP) rune {
	return rune(vm.H.Fetch(c, CharValue).Int())
}

// GoString renders a String/Symbol oop as a Go string.
func (vm *VM) GoString(o object.OOP) string { return string(vm.H.Bytes(o)) }

// ---- System dictionary (globals) ----

// sysDictFind locates the Association for key in the Smalltalk system
// dictionary; returns Invalid when absent.
func (vm *VM) sysDictFind(name string) object.OOP {
	d := vm.Specials.SmalltalkDict
	arr := vm.H.Fetch(d, SDArray)
	n := vm.H.FieldCount(arr)
	h := stringHash(name) % uint32(n)
	for i := 0; i < n; i++ {
		slot := vm.H.Fetch(arr, int((int(h)+i)%n))
		if slot == object.Nil {
			return object.Invalid
		}
		key := vm.H.Fetch(slot, AsKey)
		if vm.SymbolName(key) == name {
			return slot
		}
	}
	return object.Invalid
}

// SysDictAt returns the value of global name, or Invalid when absent.
func (vm *VM) SysDictAt(name string) object.OOP {
	a := vm.sysDictFind(name)
	if a == object.Invalid {
		return object.Invalid
	}
	return vm.H.Fetch(a, AsValue)
}

// SysDictDefine binds name to value in the system dictionary, creating
// or updating its Association, and returns the Association. MAY GC.
func (vm *VM) SysDictDefine(p *firefly.Proc, name string, value object.OOP) object.OOP {
	if a := vm.sysDictFind(name); a != object.Invalid {
		if value != object.Invalid {
			vm.H.Store(p, a, AsValue, value)
		}
		return a
	}
	hs := vm.H.Handles(p)
	defer hs.Close()
	vh := hs.Add(value)
	sym := vm.InternSymbol(p, name)
	sh := hs.Add(sym)
	assoc := vm.allocFields(p, vm.Specials.Association, AssociationInstSize)
	vm.H.Store(p, assoc, AsKey, sh.Get())
	if value != object.Invalid {
		vm.H.Store(p, assoc, AsValue, vh.Get())
	}
	ah := hs.Add(assoc)

	d := vm.Specials.SmalltalkDict
	tally := int(vm.H.Fetch(d, SDTally).Int())
	arr := vm.H.Fetch(d, SDArray)
	n := vm.H.FieldCount(arr)
	if (tally+1)*2 > n {
		vm.sysDictGrow(p)
		arr = vm.H.Fetch(d, SDArray)
		n = vm.H.FieldCount(arr)
	}
	vm.sysDictInsert(p, arr, ah.Get())
	vm.H.StoreNoCheck(d, SDTally, object.FromInt(int64(tally+1)))
	return ah.Get()
}

func (vm *VM) sysDictInsert(p *firefly.Proc, arr, assoc object.OOP) {
	name := vm.SymbolName(vm.H.Fetch(assoc, AsKey))
	n := vm.H.FieldCount(arr)
	h := stringHash(name) % uint32(n)
	for i := 0; i < n; i++ {
		idx := int((int(h) + i) % n)
		if vm.H.Fetch(arr, idx) == object.Nil {
			vm.H.Store(p, arr, idx, assoc)
			return
		}
	}
	vm.vmError("system dictionary full")
}

func (vm *VM) sysDictGrow(p *firefly.Proc) {
	d := vm.Specials.SmalltalkDict
	old := vm.H.Fetch(d, SDArray)
	n := vm.H.FieldCount(old)
	hs := vm.H.Handles(p)
	defer hs.Close()
	oldH := hs.Add(old)
	bigger := vm.NewArray(p, n*2)
	old = oldH.Get()
	vm.H.Store(p, d, SDArray, bigger)
	for i := 0; i < n; i++ {
		a := vm.H.Fetch(oldH.Get(), i)
		if a != object.Nil {
			vm.sysDictInsert(p, vm.H.Fetch(d, SDArray), a)
		}
	}
}

// SysDictDo iterates all global associations (key symbol, value).
func (vm *VM) SysDictDo(f func(assoc object.OOP)) {
	arr := vm.H.Fetch(vm.Specials.SmalltalkDict, SDArray)
	n := vm.H.FieldCount(arr)
	for i := 0; i < n; i++ {
		a := vm.H.Fetch(arr, i)
		if a != object.Nil {
			f(a)
		}
	}
}

func stringHash(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	if h == 0 {
		h = 1
	}
	return h
}

func floatBits(f float64) uint64   { return math.Float64bits(f) }
func bitsToFloat(b uint64) float64 { return math.Float64frombits(b) }
