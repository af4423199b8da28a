// Package mst is Multiprocessor Smalltalk in Go: a reproduction of
// Pallas & Ungar, "Multiprocessor Smalltalk: A Case Study of a
// Multiprocessor-Based Programming Environment" (PLDI 1988).
//
// The package boots a complete Smalltalk-80-style system — bytecode
// compiler, replicated interpreters, Generation Scavenging object
// memory, Process/Semaphore scheduler, and a kernel class library — on
// a deterministic simulated multiprocessor modelled on the DEC-SRC
// Firefly running the V kernel. All times are virtual; every run is
// reproducible.
//
// Quick start:
//
//	sys, err := mst.NewSystem(mst.DefaultConfig())
//	if err != nil { ... }
//	defer sys.Shutdown()
//	out, err := sys.Evaluate("(1 to: 100) inject: 0 into: [:a :b | a + b]")
//	// out == "5050"
//
// The configuration surface exposes everything the paper evaluates: the
// baseline (BS) versus multiprocessor (MS) system, the processor count,
// and each concurrency strategy alternative — serialized versus
// replicated method caches, free context lists, and allocation areas.
package mst

import (
	"io"

	"mst/internal/core"
	"mst/internal/firefly"
	"mst/internal/heap"
	"mst/internal/interp"
	"mst/internal/trace"
)

// System is a booted Multiprocessor Smalltalk system.
type System = core.System

// Config configures a system: mode, processors, strategy alternatives,
// and object-memory sizing.
type Config = core.Config

// Stats aggregates heap, interpreter, lock, and per-processor
// statistics.
type Stats = core.Stats

// Mode selects baseline BS or Multiprocessor Smalltalk.
type Mode = core.Mode

// Modes.
const (
	ModeMS       = core.ModeMS
	ModeBaseline = core.ModeBaseline
)

// CachePolicy selects the method-cache strategy (paper §3.2).
type CachePolicy = interp.CachePolicy

// Method-cache policies.
const (
	CacheReplicated   = interp.CacheReplicated
	CacheSharedLocked = interp.CacheSharedLocked
)

// FreeCtxPolicy selects the free-context-list strategy (paper §3.2).
type FreeCtxPolicy = interp.FreeCtxPolicy

// Free-context-list policies.
const (
	FreeCtxPerProcessor = interp.FreeCtxPerProcessor
	FreeCtxSharedLocked = interp.FreeCtxSharedLocked
)

// ICPolicy selects the per-send-site inline-cache strategy (an MS+
// extension beyond the paper; off by default for paper fidelity).
type ICPolicy = interp.ICPolicy

// Inline-cache policies.
const (
	ICOff  = interp.ICOff
	ICMono = interp.ICMono
	ICPoly = interp.ICPoly
)

// AllocPolicy selects the allocation strategy (paper §3.1 and §4).
type AllocPolicy = heap.AllocPolicy

// Allocation policies.
const (
	AllocSerialized   = heap.AllocSerialized
	AllocPerProcessor = heap.AllocPerProcessor
)

// Time is virtual time in ticks (1000 ticks per virtual millisecond).
type Time = firefly.Time

// TicksPerMS is the number of virtual ticks in one virtual millisecond.
const TicksPerMS = firefly.TicksPerMS

// Metrics is the unified metrics registry snapshot: Stats (every
// processor, lock, heap, and interpreter counter, declared once in the
// layer that counts it) plus the machine, flight-recorder and latency
// sections, in one versioned struct (see System.Metrics).
type Metrics = core.Metrics

// MetricsSchemaVersion versions the Metrics struct and the msbench
// -json schema built on it.
const MetricsSchemaVersion = core.MetricsSchemaVersion

// DefaultTraceEvents is the default flight-recorder ring capacity for
// Config.TraceEvents.
const DefaultTraceEvents = trace.DefaultRingSize

// NewSystem boots a system under cfg: a simulated multiprocessor, the
// object memory, one interpreter per processor, and the full kernel
// image filed in from source.
func NewSystem(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// DefaultConfig is the production MS configuration: five processors
// (the Firefly's complement), replicated method caches and free context
// lists, serialized allocation.
func DefaultConfig() Config { return core.DefaultConfig() }

// BaselineConfig is the paper's reference point: baseline Berkeley
// Smalltalk on the Firefly with no multiprocessor support, one
// processor.
func BaselineConfig() Config { return core.BaselineConfig() }

// MSPlusConfig is MS extended past the paper: polymorphic per-send-site
// inline caches in front of the replicated method caches, and a 2-way
// set-associative method cache.
func MSPlusConfig() Config { return core.MSPlusConfig() }

// LoadImage boots a system from a snapshot written by System.SaveImage
// or by `Smalltalk snapshotTo: 'path'`, on the given number of
// processors, under the configuration the snapshot records (mode,
// caches, heap geometry, collectors, JIT) with no observers attached.
// A baseline image loads on one processor only. Processes on the
// snapshotted ready queue — including the snapshotting Process, per the
// paper's activeProcess protocol — resume when evaluation next drives
// the machine.
func LoadImage(processors int, r io.Reader) (*System, error) {
	return core.LoadImage(processors, r)
}
