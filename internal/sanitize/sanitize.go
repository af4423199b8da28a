// Package sanitize is mscheck, the Table-3 invariant sanitizer: an
// always-compilable, off-by-default checker layer that turns the
// paper's concurrency discipline — every piece of shared VM state is
// covered by exactly one of serialization, replication, or
// reorganization — into executable checks.
//
// Two engines, each kept because it polices a row of Table 3 (the
// catch matrix in internal/msvet/catchmatrix_test.go decided which
// engines stay):
//
//   - The Eraser-style lockset checker validates the *serialization*
//     rows: each shared structure (allocation pointer, entry table,
//     ready queue, I/O queues, shared method cache, shared free lists)
//     is registered with its guarding virtual spinlock, and every
//     instrumented access is checked against the locks the accessing
//     virtual processor currently holds. Acquisition order is tracked
//     pairwise and potential deadlock cycles are reported.
//   - The write-barrier verifier (implemented in internal/heap, which
//     owns the memory; violations are reported here) independently
//     rescans old space after every scavenge and cross-checks old→new
//     pointers against the entry table, catching any store that
//     bypassed the store check.
//
// The determinism sentinel is the package's meta-invariant: a checker
// is pure observation, so a sanitizer-on run must leave virtual time
// and every counter bit-identical to a sanitizer-off run.
// FingerprintDiff compares two counter snapshots deterministically;
// the golden tests assert the full invariant.
//
// Like internal/trace, this package sits below every other layer (it
// imports nothing from the repository) so that firefly, heap, interp,
// and display can all feed one checker. Every hook (the Register, On,
// Report and Note methods) accepts a nil *Checker, which is the
// sanitizer switched off: the per-access and per-object hooks are
// inlined wrappers, so a detached site costs exactly one pointer test.
// The checker itself never charges virtual time and never touches the
// simulated heap.
package sanitize

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind classifies one sanitizer violation.
type Kind int

const (
	// KindUnlockedAccess: a serialized structure was accessed by a
	// processor not holding its guarding lock. It polices Table 3's
	// serialization rows, and it alone catches the matrix's row 12
	// (old space carved without the alloc lock).
	KindUnlockedAccess Kind = iota
	// KindUnknownStructure: an access hook fired for a structure that
	// was never registered with a guard (a wiring bug that would let a
	// serialization row go unchecked).
	KindUnknownStructure
	// KindWriteBarrier: the post-scavenge old-space scan found an
	// old→new pointer that is not covered by the entry table (a store
	// that bypassed the store check), or a dangling pointer into
	// reclaimed new space left behind by such a store. It polices
	// Table 3's entry-tables row, and it alone catches the matrix's
	// row 13 (a block's caller stored with StoreNoCheck).
	KindWriteBarrier
)

var kindNames = map[Kind]string{
	KindUnlockedAccess:   "unlocked-access",
	KindUnknownStructure: "unknown-structure",
	KindWriteBarrier:     "write-barrier",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Violation is one detected invariant breach. At is virtual ticks on
// the offending processor's clock when the hook fired.
type Violation struct {
	Kind      Kind
	Proc      int
	At        int64
	Structure string // structure or lock the violation concerns
	Lock      string // guarding lock, when applicable
	Detail    string
}

func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mscheck %s: proc %d at %d", v.Kind, v.Proc, v.At)
	if v.Structure != "" {
		fmt.Fprintf(&b, " structure %q", v.Structure)
	}
	if v.Lock != "" {
		fmt.Fprintf(&b, " lock %q", v.Lock)
	}
	if v.Detail != "" {
		fmt.Fprintf(&b, ": %s", v.Detail)
	}
	return b.String()
}

// orderEdge is one first-witnessed "acquired b while holding a".
type orderEdge struct{ a, b string }

type orderWitness struct {
	proc int
	at   int64
}

// Checker is the mscheck run-time state. A host-side mutex makes every
// hook safe to call from any goroutine: the deterministic mode
// has a single writer anyway (the lock is never contended there), and
// parallel host mode feeds the checker from all processors at once.
// The mutex is pure host machinery — it never charges virtual time, so
// the determinism sentinel still holds.
type Checker struct {
	//msvet:stw-safe checker bookkeeping lock: held for bounded map updates only, never across a safepoint or while acquiring any simulated lock
	mu     sync.Mutex
	locks  map[string]bool   // lock name → enabled
	guards map[string]string // structure → guarding lock name

	held [][]string // per-proc ordered list of held lock names

	edges map[orderEdge]orderWitness

	violations []Violation

	lockEvents   uint64 // acquire/release hooks validated
	accessChecks uint64 // structure accesses validated
	barrierScans uint64 // post-scavenge write-barrier verifications
	barrierWords uint64 // old-space words scanned by the verifier
}

// New creates an empty checker. Attach it to a machine before the
// system boots so every lock and structure registers itself.
func New() *Checker {
	return &Checker{
		locks:  map[string]bool{},
		guards: map[string]string{},
		edges:  map[orderEdge]orderWitness{},
	}
}

// RegisterLock records a virtual spinlock. A disabled lock (baseline
// BS mode, multiprocessor support compiled out) exempts every
// structure it guards: the accesses are single-threaded by
// construction, so the lockset rule does not apply.
func (c *Checker) RegisterLock(name string, enabled bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.locks[name] = enabled
}

// RegisterGuard declares that the named shared structure is protected
// by the named lock (a Table-3 serialization row).
func (c *Checker) RegisterGuard(structure, lock string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.guards[structure] = lock
}

// procHeld returns the held-lock list for proc, growing the table.
func (c *Checker) procHeld(proc int) *[]string {
	for proc >= len(c.held) {
		c.held = append(c.held, nil)
	}
	return &c.held[proc]
}

func (c *Checker) report(v Violation) { c.violations = append(c.violations, v) }

// OnAcquire records that proc now holds lock, recording pairwise
// acquisition order. A lock acquired while already held records the
// one-lock cycle lock -> lock.
func (c *Checker) OnAcquire(proc int, at int64, lock string) {
	if c != nil {
		c.onAcquire(proc, at, lock)
	}
}

func (c *Checker) onAcquire(proc int, at int64, lock string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lockEvents++
	held := c.procHeld(proc)
	for _, h := range *held {
		e := orderEdge{a: h, b: lock}
		if _, ok := c.edges[e]; !ok {
			c.edges[e] = orderWitness{proc: proc, at: at}
		}
	}
	*held = append(*held, lock)
}

// OnRelease records that proc dropped lock. Releasing a lock that is
// not held is firefly's to catch: a Spinlock panics first.
func (c *Checker) OnRelease(proc int, lock string) {
	if c != nil {
		c.onRelease(proc, lock)
	}
}

func (c *Checker) onRelease(proc int, lock string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lockEvents++
	held := c.procHeld(proc)
	for i, h := range *held {
		if h == lock {
			*held = append((*held)[:i], (*held)[i+1:]...)
			return
		}
	}
}

// OnAccess validates an access to a registered serialized structure:
// the accessing processor must hold the structure's guard, unless the
// guard is a disabled (baseline) lock.
func (c *Checker) OnAccess(proc int, at int64, structure string) {
	if c != nil {
		c.onAccess(proc, at, structure)
	}
}

func (c *Checker) onAccess(proc int, at int64, structure string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.accessChecks++
	lock, ok := c.guards[structure]
	if !ok {
		c.report(Violation{Kind: KindUnknownStructure, Proc: proc, At: at, Structure: structure,
			Detail: "access to a structure with no registered guard"})
		return
	}
	if enabled, known := c.locks[lock]; known && !enabled {
		return // baseline mode: lock compiled out, access is single-threaded
	}
	for _, h := range *c.procHeld(proc) {
		if h == lock {
			return
		}
	}
	c.report(Violation{Kind: KindUnlockedAccess, Proc: proc, At: at,
		Structure: structure, Lock: lock,
		Detail: "serialized structure accessed without its guard"})
}

// ReportWriteBarrier records one write-barrier verifier finding (the
// scan itself lives in internal/heap, which owns the memory).
func (c *Checker) ReportWriteBarrier(proc int, at int64, detail string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.report(Violation{Kind: KindWriteBarrier, Proc: proc, At: at,
		Structure: "remembered-set", Detail: detail})
}

// NoteBarrierScan accounts one verifier pass over words of old space.
func (c *Checker) NoteBarrierScan(words uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.barrierScans++
	c.barrierWords += words
}

// Violations returns every event-ordered violation recorded so far
// (deterministic: the simulation is deterministic and the checker is
// fed from its single-threaded hook points).
func (c *Checker) Violations() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.violations
}

// LockOrderCycles detects cycles in the pairwise acquisition-order
// graph of Table 3's serialization locks — each a potential deadlock on
// real hardware — and returns each one once, as a canonical
// "a -> b -> a" string, in sorted order. The result is deterministic for a given
// set of edges regardless of map iteration order.
func (c *Checker) LockOrderCycles() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lockOrderCycles()
}

// OrderEdges returns the runtime-observed pairwise acquisition-order
// edges as sorted "a -> b" strings. Deterministic for a given run: the
// edge set is a pure function of the simulated schedule.
func (c *Checker) OrderEdges() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.edges))
	for e := range c.edges {
		out = append(out, e.a+" -> "+e.b)
	}
	sort.Strings(out)
	return out
}

// StaticOrderViolations cross-checks the run against the static
// lock-order graph (msvet -lockgraph): every acquisition-order edge
// observed at runtime must already be predicted by the static
// analysis, so the runtime graph is a subgraph of the static one. A
// returned edge means the static call graph missed an acquire path
// (usually dynamic dispatch) — an audit gap, reported with the
// first-witness processor and virtual time.
func (c *Checker) StaticOrderViolations(staticEdges []string) []string {
	static := map[string]bool{}
	for _, e := range staticEdges {
		static[e] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for e, w := range c.edges {
		s := e.a + " -> " + e.b
		if !static[s] {
			out = append(out, fmt.Sprintf("%s (first witnessed on proc %d at %d)", s, w.proc, w.at))
		}
	}
	sort.Strings(out)
	return out
}

func (c *Checker) lockOrderCycles() []string {
	edges := make([][2]string, 0, len(c.edges))
	for e := range c.edges {
		edges = append(edges, [2]string{e.a, e.b})
	}
	return Cycles(edges)
}

// Cycles returns every elementary cycle of a directed graph once, as a
// "a -> b -> a" string rotated to start at its lexically smallest node,
// in sorted order — the same strings whatever the order of edges. The
// checker renders its runtime acquisition-order cycles with it and
// msvet's lockorder its static ones, so the two graphs that are
// cross-checked name a cycle the same way.
func Cycles(edges [][2]string) []string {
	adj := map[string][]string{}
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	var names []string // only a node with an out-edge can be on a cycle
	for n, outs := range adj {
		names = append(names, n)
		sort.Strings(outs)
	}
	sort.Strings(names)

	seen := map[string]bool{}
	var cycles []string
	var stack []string
	onStack := map[string]int{} // name → index in stack
	var dfs func(n string)
	dfs = func(n string) {
		if idx, ok := onStack[n]; ok {
			cyc := stack[idx:]
			min := 0
			for i := range cyc {
				if cyc[i] < cyc[min] {
					min = i
				}
			}
			rot := append(append(append([]string(nil), cyc[min:]...), cyc[:min]...), cyc[min])
			if canon := strings.Join(rot, " -> "); !seen[canon] {
				seen[canon] = true
				cycles = append(cycles, canon)
			}
			return
		}
		onStack[n] = len(stack)
		stack = append(stack, n)
		for _, m := range adj[n] {
			dfs(m)
		}
		stack = stack[:len(stack)-1]
		delete(onStack, n)
	}
	for _, n := range names {
		dfs(n)
	}
	sort.Strings(cycles)
	return cycles
}

// Clean reports whether the run finished with no violations and no
// lock-order cycles.
func (c *Checker) Clean() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.violations) == 0 && len(c.lockOrderCycles()) == 0
}

// Stats summarizes how much checking a run performed; reports print
// it so a "clean" result is distinguishable from "nothing checked".
type Stats struct {
	Locks        int
	Guards       int
	LockEvents   uint64
	AccessChecks uint64
	BarrierScans uint64
	BarrierWords uint64
	Violations   int
	OrderCycles  int
}

// Stats returns the checker's work counters.
func (c *Checker) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats()
}

func (c *Checker) stats() Stats {
	return Stats{
		Locks:        len(c.locks),
		Guards:       len(c.guards),
		LockEvents:   c.lockEvents,
		AccessChecks: c.accessChecks,
		BarrierScans: c.barrierScans,
		BarrierWords: c.barrierWords,
		Violations:   len(c.violations),
		OrderCycles:  len(c.lockOrderCycles()),
	}
}

// Report renders a deterministic human-readable summary: registered
// locks and guards, work counters, then every violation and cycle.
func (c *Checker) Report() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b strings.Builder
	st := c.stats()
	fmt.Fprintf(&b, "mscheck: %d locks, %d serialized structures\n", st.Locks, st.Guards)
	fmt.Fprintf(&b, "mscheck: %d lock events, %d access checks, %d barrier scans (%d words)\n",
		st.LockEvents, st.AccessChecks, st.BarrierScans, st.BarrierWords)

	var guards []string
	for s, l := range c.guards {
		enabled := ""
		if on, known := c.locks[l]; known && !on {
			enabled = " (disabled: baseline)"
		}
		guards = append(guards, fmt.Sprintf("  %s guarded by %s%s", s, l, enabled))
	}
	sort.Strings(guards)
	for _, g := range guards {
		b.WriteString(g + "\n")
	}

	cycles := c.lockOrderCycles()
	if len(c.violations) == 0 && len(cycles) == 0 {
		b.WriteString("mscheck: clean (0 violations)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "mscheck: %d violations, %d lock-order cycles\n",
		len(c.violations), len(cycles))
	for _, v := range c.violations {
		b.WriteString("  " + v.String() + "\n")
	}
	for _, cyc := range cycles {
		fmt.Fprintf(&b, "  mscheck lock-order-cycle: %s\n", cyc)
	}
	return b.String()
}
