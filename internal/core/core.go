// Package core assembles Multiprocessor Smalltalk: a virtual Firefly, the
// object memory, the replicated interpreters, and the virtual image, under
// one configuration surface that expresses every system state and design
// alternative the paper measures — baseline BS versus MS, the number of
// processors, serialized versus replicated method caches and free context
// lists, and serialized versus per-processor allocation.
package core

import (
	"fmt"
	"io"

	"mst/internal/firefly"
	"mst/internal/heap"
	"mst/internal/image"
	"mst/internal/interp"
	"mst/internal/object"
	"mst/internal/sanitize"
	"mst/internal/trace"
)

// Mode selects baseline BS or Multiprocessor Smalltalk.
type Mode int

const (
	// ModeMS is Multiprocessor Smalltalk: multiprocessor support
	// enabled (virtual locks, store-check serialization, replicated
	// caches with their access overhead).
	ModeMS Mode = iota
	// ModeBaseline is "baseline BS": the identical interpreter with
	// all multiprocessor support compiled out, the paper's reference
	// point. Always runs on one processor.
	ModeBaseline
)

func (m Mode) String() string {
	if m == ModeBaseline {
		return "baseline-BS"
	}
	return "MS"
}

// Config configures a complete system. Processors, Parallel and the
// observers are chosen per instance; every other field is fixed by the
// image, and a clone or a load runs the image's (DESIGN.md §13).
type Config struct {
	Mode       Mode
	Processors int // the Firefly had five

	// The paper's strategy alternatives (§3.2 and §4).
	MethodCache  interp.CachePolicy
	FreeContexts interp.FreeCtxPolicy
	Alloc        heap.AllocPolicy

	// Extensions beyond the paper (MS+): per-send-site inline caches
	// and a 2-way set-associative method cache. Both off/1 in
	// DefaultConfig and BaselineConfig so the reproduced Table 2 /
	// Figure 2 numbers are bit-identical to the paper-faithful system.
	// CacheWays is 1 or 2.
	InlineCache interp.ICPolicy
	CacheWays   int

	// Object memory sizing, in 8-byte words.
	EdenWords     int
	SurvivorWords int
	OldWords      int
	TenureAge     int

	// Observability (zero cost when off; never changes virtual time or
	// any counter when on). TraceEvents is the flight-recorder ring
	// capacity in events (0 disables tracing); Profile attaches the
	// selector-level virtual-time profiler after boot; Histograms
	// attaches the latency-distribution registry (GC pauses, scavenge
	// phases, dispatch latency, per-lock acquire waits — Metrics
	// schemaVersion 3's latency section); AllocProfile attaches the
	// allocation-site profiler after boot (deterministic mode only).
	TraceEvents  int
	Profile      bool
	Histograms   bool
	AllocProfile bool
	// Sanitize attaches the mscheck invariant sanitizer (lockset +
	// write-barrier verifier); violations are collected, never fatal.
	// Like tracing, it reads virtual clocks but never advances them:
	// a sanitized run is bit-identical to an unsanitized one.
	Sanitize bool

	// ParScavenge enables the cooperative parallel scavenger: during the
	// stop-the-world window every processor is a worker that copies
	// survivors through its own buffer, feeding a work-stealing grey
	// deque, and the processor that stopped the world simulates them
	// all, under Parallel too. Off by default; off, or on one
	// processor, the scavenger has one worker: the paper's serial
	// scavenge, which every golden number pins.
	ParScavenge bool

	// ConcMark enables the concurrent old-space marker: full
	// collections become snapshot-at-the-beginning marking cycles with
	// two short stop-the-world windows, mark slices interleaved with
	// mutator quanta, and a lazy free-list sweep in place of
	// compaction. Deterministic mode only: NewSystem refuses it with
	// Parallel. Off by default; with it off the serial mark-compact
	// runs and every golden number is bit-identical.
	ConcMark bool

	// JIT enables the msjit tier: hot methods get straight-line
	// bytecode runs fused into superinstructions, over the
	// interpreter's one bytecode switch. Off by default; fused code
	// charges the same virtual costs as the interpreter, so virtual
	// times and goldens are bit-identical either way — only host time
	// changes.
	JIT bool

	// Parallel runs the virtual processors on real goroutines after a
	// deterministic boot: virtual spinlocks become CAS test-and-set
	// words, scavenges stop the world via a safepoint rendezvous, and
	// the flight recorder (if any) shards per processor. Virtual
	// clocks are then host-schedule-dependent — determinism and the
	// golden numbers hold only with Parallel off (the default).
	Parallel bool

	// ExtraSources are additional chunk-format sources filed in after
	// the kernel (applications, benchmarks).
	ExtraSources []string
}

// DefaultConfig is the production MS configuration on a five-processor
// Firefly.
func DefaultConfig() Config {
	return Config{
		Mode:          ModeMS,
		Processors:    5,
		MethodCache:   interp.CacheReplicated,
		FreeContexts:  interp.FreeCtxPerProcessor,
		Alloc:         heap.AllocSerialized,
		CacheWays:     1,
		EdenWords:     16 << 10, // ~128 KB: near the paper's 80 KB eden
		SurvivorWords: 4 << 10,
		OldWords:      4 << 20,
		TenureAge:     4,
	}
}

// BaselineConfig is the paper's reference point: BS ported to the
// Firefly, no multiprocessor support, one processor.
func BaselineConfig() Config {
	c := DefaultConfig()
	c.Mode = ModeBaseline
	c.Processors = 1
	return c
}

// MSPlusConfig is MS extended past the paper: polymorphic per-send-site
// inline caches in front of the replicated method caches, and a 2-way
// set-associative method cache. This is the configuration the
// inline-cache ablation measures against DefaultConfig.
func MSPlusConfig() Config {
	c := DefaultConfig()
	c.InlineCache = interp.ICPoly
	c.CacheWays = 2
	return c
}

// System is a booted Multiprocessor Smalltalk.
type System struct {
	Cfg Config
	VM  *interp.VM

	background int // background Processes spawned
}

// BusyWorkerSource defines the paper's "busy" competitor: modeled on the
// sweep-hand background Process, "it includes message sends and object
// allocations, and also contends for the display."
const BusyWorkerSource = `
Object subclass: #BusyWorker
	instanceVariableNames: 'ticks'
	category: 'Benchmarks'!

!BusyWorker methodsFor: 'running'!
step
	"One sweep-hand tick: sends, allocations, display contention."
	| a s |
	ticks := ticks + 1.
	a := Array new: 12.
	1 to: 6 do: [:i | a at: i put: (self nudge: ticks + i)].
	s := WriteStream on: (String new: 8).
	ticks printOn: s.
	a at: 7 put: s contents.
	Display displayString: (a at: 7) at: ticks \\ 70 + 1 at: 23.
	^a!
nudge: x
	^x + 1!
run
	ticks := 0.
	[true] whileTrue: [self step]! !

!BusyWorker class methodsFor: 'instance creation'!
spawn
	| w |
	w := self new.
	w setTicks.
	[w run] fork.
	^w! !

!BusyWorker methodsFor: 'initialization'!
setTicks
	ticks := 0! !
`

// NewSystem boots a system under cfg.
func NewSystem(cfg Config) (*System, error) {
	sources := append([]string{BusyWorkerSource}, cfg.ExtraSources...)
	return assemble(cfg, func(m *firefly.Machine) (*interp.VM, error) {
		return image.BootOn(m, cfg.heapConfig(), interp.Config{
			MSMode:       cfg.Mode == ModeMS,
			MethodCache:  cfg.MethodCache,
			CacheWays:    cfg.CacheWays,
			InlineCache:  cfg.InlineCache,
			FreeContexts: cfg.FreeContexts,
			JIT:          cfg.JIT,
		}, sources...)
	})
}

// assemble builds every System: it validates cfg, makes the machine,
// attaches the observers, lets build construct the image on it, then
// enables the profilers and, last, parallel host mode.
func assemble(cfg Config, build func(*firefly.Machine) (*interp.VM, error)) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := firefly.New(cfg.Processors, firefly.DefaultCosts())
	if cfg.TraceEvents > 0 {
		// Attach before the image exists so every layer caches the
		// recorder. In parallel mode each processor gets a private ring,
		// merged by virtual time at export.
		if cfg.Parallel {
			m.SetRecorder(trace.NewShardedRecorder(cfg.TraceEvents, cfg.Processors))
		} else {
			m.SetRecorder(trace.NewRecorder(cfg.TraceEvents))
		}
	}
	if cfg.Sanitize {
		// Likewise: heap and VM cache the checker and register their
		// guarded structures during construction.
		m.SetSanitizer(sanitize.New())
	}
	if cfg.Histograms {
		// Likewise: the heap caches the registry and locks pick up their
		// wait histograms as they are registered.
		m.SetLatencyHists(trace.NewLatencyHists())
	}
	vm, err := build(m)
	if err != nil {
		return nil, err
	}
	if cfg.Profile {
		vm.EnableProfiler()
	}
	if cfg.AllocProfile {
		vm.EnableAllocProfiler()
	}
	if cfg.Parallel {
		// Image construction ran deterministically; from here on the
		// processors run on real goroutines.
		m.SetParallel(true)
	}
	return &System{Cfg: cfg, VM: vm}, nil
}

// validate rejects a Config no constructor may run.
func (c Config) validate() error {
	switch {
	case c.Processors < 1:
		return fmt.Errorf("core: need at least one processor")
	case c.Mode == ModeBaseline && c.Processors != 1:
		return fmt.Errorf("core: baseline BS is single-threaded; use one processor")
	case c.CacheWays != 1 && c.CacheWays != 2:
		return fmt.Errorf("core: the method cache is 1- or 2-way, not %d", c.CacheWays)
	case c.Parallel && c.Profile:
		// The profiler's name caches are unsynchronized host maps keyed
		// by oops; profile deterministic runs instead.
		return fmt.Errorf("core: -profile requires the deterministic mode (drop -parallel)")
	case c.Parallel && c.AllocProfile:
		// Site attribution reads the per-processor interpreter state
		// mid-bytecode and keeps unsynchronized address maps.
		return fmt.Errorf("core: -allocprofile requires the deterministic mode (drop -parallel)")
	}
	return c.heapConfig().Validate()
}

// heapConfig is the heap's half of c.
func (c Config) heapConfig() heap.Config {
	return heap.Config{
		OldWords:      c.OldWords,
		EdenWords:     c.EdenWords,
		SurvivorWords: c.SurvivorWords,
		TenureAge:     c.TenureAge,
		Policy:        c.Alloc,
		Parallel:      c.Parallel,
		ParScavenge:   c.ParScavenge,
		ConcMark:      c.ConcMark,
	}
}

// imageConfig reads the image-fixed fields of a Config back off the
// configurations s records; the per-instance ones are left zero.
func imageConfig(s *image.State) Config {
	h, v := s.Heap.Config, s.VMCfg
	mode := ModeMS
	if !v.MSMode {
		mode = ModeBaseline
	}
	return Config{
		Mode:          mode,
		MethodCache:   v.MethodCache,
		FreeContexts:  v.FreeContexts,
		Alloc:         h.Policy,
		InlineCache:   v.InlineCache,
		CacheWays:     v.CacheWays,
		EdenWords:     h.EdenWords,
		SurvivorWords: h.SurvivorWords,
		OldWords:      h.OldWords,
		TenureAge:     h.TenureAge,
		ParScavenge:   h.ParScavenge,
		ConcMark:      h.ConcMark,
		JIT:           v.JIT,
	}
}

// Evaluate runs source as a user-priority Process to completion and
// answers the result's printString (computed by image code).
func (s *System) Evaluate(source string) (string, error) {
	return image.EvaluateToString(s.VM, source)
}

// EvaluateRaw runs source and answers the raw result oop, without
// invoking image printing.
func (s *System) EvaluateRaw(source string) (object.OOP, error) {
	res, err := s.VM.Evaluate(source)
	if err != nil {
		return object.Nil, err
	}
	return res.Value, nil
}

// EvaluateInt runs source expecting a SmallInteger result.
func (s *System) EvaluateInt(source string) (int64, error) {
	o, err := s.EvaluateRaw(source)
	if err != nil {
		return 0, err
	}
	if !o.IsInt() {
		return 0, fmt.Errorf("core: %q answered %s, not an integer",
			source, s.VM.DescribeOOP(o))
	}
	return o.Int(), nil
}

// FileIn loads additional chunk-format source.
func (s *System) FileIn(name, source string) error {
	return image.FileIn(s.VM, name, source)
}

// SpawnIdleProcesses forks n of the paper's idle Processes: the trivial
// expression [true] whileTrue, which the compiler translates "into
// bytecode which neither looks up messages nor allocates memory".
func (s *System) SpawnIdleProcesses(n int) error {
	return s.spawnBackground(n, "[[true] whileTrue] fork")
}

// SpawnBusyProcesses forks n sweep-hand-style busy Processes (sends,
// allocations, display contention).
func (s *System) SpawnBusyProcesses(n int) error {
	return s.spawnBackground(n, "BusyWorker spawn")
}

// spawnBackground forks n background Processes by evaluating fork. A
// background Process never yields, and it runs at the evaluation's
// priority, which Smalltalk-80 does not time-slice, so each one holds a
// processor for good: with as many as there are processors, nothing is
// left for an evaluation and it would never return.
func (s *System) spawnBackground(n int, fork string) error {
	if procs := s.VM.M.NumProcs(); n > 0 && s.background+n >= procs {
		return fmt.Errorf("core: %d background Processes on %d processors leave none for an evaluation (at most %d)",
			s.background+n, procs, procs-1)
	}
	for i := 0; i < n; i++ {
		if _, err := s.EvaluateRaw(fork); err != nil {
			return err
		}
		s.background++
	}
	return nil
}

// BackgroundProcesses returns how many background Processes were spawned.
func (s *System) BackgroundProcesses() int { return s.background }

// WriteTrace exports the flight recorder's contents as Chrome
// trace-event / Perfetto JSON. It errors when tracing was not enabled.
func (s *System) WriteTrace(w io.Writer) error {
	r := s.VM.M.Recorder()
	if r == nil {
		return fmt.Errorf("core: tracing was not enabled (Config.TraceEvents)")
	}
	return trace.WritePerfetto(w, r.Events(), s.VM.M.NumProcs())
}

// ProfileReport finalizes the selector profiler and renders its top-N
// table. It errors when profiling was not enabled.
func (s *System) ProfileReport(topN int) (string, error) {
	pf := s.VM.Profiler()
	if pf == nil {
		return "", fmt.Errorf("core: profiling was not enabled (Config.Profile)")
	}
	s.VM.ProfilerFlush()
	return pf.Report(topN), nil
}

// GCReport renders the GC rollup: a header with the collector counts,
// then the latency distributions — GC pause and scavenge-phase
// percentiles, dispatch latency, lock waits, and the parallel-scavenge
// critical paths. It errors when histograms were not enabled.
func (s *System) GCReport() (string, error) {
	lh := s.VM.M.LatencyHists()
	if lh == nil {
		return "", fmt.Errorf("core: histograms were not enabled (Config.Histograms)")
	}
	hs := s.VM.H.Stats()
	return fmt.Sprintf("GC report\nscavenges: %d (%d parallel), full collections: %d, max pause %d / %d ticks\n\n",
		hs.Scavenges, hs.ParScavenges, hs.FullCollections,
		int64(hs.ScavengeMaxPause), int64(hs.FullGCMaxPause)) + lh.Report(), nil
}

// AllocProfileReport renders the allocation-site profiler's top-N table
// and the object-demographics census. It errors when allocation
// profiling was not enabled.
func (s *System) AllocProfileReport(topN int) (string, error) {
	ap := s.VM.AllocProfiler()
	if ap == nil {
		return "", fmt.Errorf("core: allocation profiling was not enabled (Config.AllocProfile)")
	}
	return ap.Report(topN), nil
}

// Sanitizer returns the attached invariant checker, or nil when
// Config.Sanitize was off.
func (s *System) Sanitizer() *sanitize.Checker { return s.VM.M.Sanitizer() }

// SanitizeReport renders the checker's findings. It errors when the
// sanitizer was not enabled.
func (s *System) SanitizeReport() (string, error) {
	san := s.Sanitizer()
	if san == nil {
		return "", fmt.Errorf("core: sanitizer was not enabled (Config.Sanitize)")
	}
	return san.Report(), nil
}

// VirtualTime returns the maximum virtual clock across processors.
func (s *System) VirtualTime() firefly.Time {
	var max firefly.Time
	for i := 0; i < s.VM.M.NumProcs(); i++ {
		if t := s.VM.M.Proc(i).Now(); t > max {
			max = t
		}
	}
	return max
}

// TranscriptText returns everything written to the Transcript.
func (s *System) TranscriptText() string { return s.VM.Disp.TranscriptText() }

// SaveImage writes a snapshot of the running image to w after parking
// every Process (including background workers); the running system
// continues afterwards. Smalltalk code can snapshot itself with
// `Smalltalk snapshotTo: 'path'`.
func (s *System) SaveImage(w io.Writer) error {
	cp, err := s.Checkpoint()
	if err != nil {
		return err
	}
	return cp.state.Encode(w)
}

// Checkpoint is an in-memory snapshot of a booted system, reusable as
// the base of any number of clones. The multi-tenant image server
// captures one checkpoint of the booted base image and materializes a
// private session per tenant from it; the checkpoint itself is
// immutable after capture, so clones share it safely.
type Checkpoint struct {
	state *image.State
	cfg   Config
}

// Checkpoint captures the system in memory after parking every Process
// (the same quiesce SaveImage performs) and tenuring every live young
// object, so a checkpoint holds no young objects and a clone's
// scavenges copy only its own survivors (DESIGN.md §13). The running
// system continues afterwards.
func (s *System) Checkpoint() (*Checkpoint, error) {
	cp := &Checkpoint{cfg: s.Cfg}
	err := s.VM.Do(func(p *firefly.Proc) {
		s.VM.ParkAllProcesses(p)
		s.VM.H.TenureAll(p)
		cp.state = image.CaptureState(s.VM)
	})
	if err != nil {
		return nil, err
	}
	return cp, nil
}

// NewFromCheckpoint boots an independent, deterministic system under
// the checkpoint's Config, observers included, on a fresh machine with
// the given processor count. The clone copies the checkpoint's heap
// words directly, so cloning N tenants from one checkpoint costs N heap
// copies and no gob decode.
func NewFromCheckpoint(processors int, cp *Checkpoint) (*System, error) {
	cfg := cp.cfg
	cfg.Processors, cfg.Parallel = processors, false
	return assemble(cfg, func(m *firefly.Machine) (*interp.VM, error) {
		return image.CloneVM(m, cp.state)
	})
}

// LoadImage boots a snapshot on the given processor count: a clone of
// the decoded image under the configuration it records, with no
// observers, so a baseline image loads on one processor only. Processes
// that were on the ready queue at snapshot time resume when evaluation
// next drives the machine.
func LoadImage(processors int, r io.Reader) (*System, error) {
	s, err := image.DecodeState(r)
	if err != nil {
		return nil, err
	}
	return NewFromCheckpoint(processors, &Checkpoint{state: s, cfg: imageConfig(s)})
}

// Shutdown stops the machine, then releases the heap's array to the next
// system of the same geometry (DESIGN.md §4); the system is unusable
// afterwards. A second call does nothing.
func (s *System) Shutdown() {
	s.VM.M.Shutdown() // in parallel mode, returns once no processor goroutine is live
	s.VM.H.Release()
}
