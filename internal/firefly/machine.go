// Package firefly simulates a small shared-memory multiprocessor in the
// spirit of the DEC-SRC Firefly running the V kernel, the hardware and
// operating-system base of the Multiprocessor Smalltalk (MS) project
// (Pallas & Ungar, PLDI 1988).
//
// The simulator is deterministic: each virtual processor has its own
// virtual-time clock, and a driver interleaves bounded quanta of work,
// always resuming the runnable processor with the smallest clock. Work
// running on a processor charges virtual time through the cost model
// (Costs). Virtual spinlocks make lock hold intervals and contention
// windows overlap in virtual time exactly as they would on real parallel
// hardware, so contention, stalls, and utilization are emergent properties
// of the workload; only the primitive operation costs are assumed.
//
// Each processor's work function is one runtime coroutine (coro.go), so
// exactly one of them, or the driver, executes at any moment and the
// simulated machine state needs no host-level synchronization. Run, the
// driver, resumes the processor with the minimum clock. Yield decides in
// place: it returns at once when the yielder is scheduled again and
// otherwise leaves the decision in the machine and switches to the driver.
// A processor with nothing to run parks its coroutine once, in Idle, and
// from then on is an event: whoever makes a scheduling decision that picks
// it runs its idle quantum right there (settle), and its coroutine is
// switched to only when the quantum reports work.
package firefly

import (
	"container/heap"
	"fmt"
	"sync"
	"sync/atomic"

	"mst/internal/sanitize"
	"mst/internal/trace"
)

// Time is virtual time in ticks. One tick is one microsecond of simulated
// time; TicksPerMS ticks make one virtual millisecond, the unit reported by
// the Smalltalk millisecond clock and by all benchmarks.
type Time int64

// TicksPerMS is the number of virtual ticks per virtual millisecond.
const TicksPerMS Time = 1000

// Ms converts a tick count to whole virtual milliseconds.
func (t Time) Ms() int64 { return int64(t / TicksPerMS) }

// String formats a Time as fractional virtual milliseconds.
func (t Time) String() string {
	return fmt.Sprintf("%d.%03dms", t/TicksPerMS, t%TicksPerMS)
}

// StopReason reports why Machine.Run returned.
type StopReason int

const (
	// StopUntil means the caller's until predicate became true.
	StopUntil StopReason = iota
	// StopAllDone means every processor's work function returned.
	StopAllDone
	// StopTimeLimit means virtual time exceeded the machine's limit.
	StopTimeLimit
)

func (r StopReason) String() string {
	switch r {
	case StopUntil:
		return "until-satisfied"
	case StopAllDone:
		return "all-done"
	case StopTimeLimit:
		return "time-limit"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// Proc is one virtual processor. All methods must be called from the
// processor's own work function.
type Proc struct {
	id      int
	m       *Machine
	clock   Time
	yieldAt Time

	// co resumes the work function's coroutine until its next Yield that
	// switches, or its return; yield is the other side. nil until Start.
	co, yield func()
	done      bool
	active    bool

	// idleFn is the quantum registered by Idle, non-nil exactly while the
	// coroutine is inside Idle; idlePanic carries a panic out of a quantum
	// that ran on another coroutine, for Idle to re-raise on this one.
	idleFn    func() IdleResult
	idlePanic any

	// Statistics, all in ticks of virtual time.
	busy  Time // productive work
	spin  Time // spinning on contended locks
	stall Time // stalled for stop-the-world collection
	idle  Time // idling with no Smalltalk process to run
}

// ID returns the processor number, 0-based.
func (p *Proc) ID() int { return p.id }

// Now returns the processor's current virtual time.
func (p *Proc) Now() Time { return p.clock }

// Machine returns the machine this processor belongs to.
func (p *Proc) Machine() *Machine { return p.m }

// Advance charges c ticks of productive virtual time to this processor.
func (p *Proc) Advance(c Time) {
	p.clock += c
	p.busy += c
}

// AdvanceSpin charges c ticks of lock-spinning time.
func (p *Proc) AdvanceSpin(c Time) {
	p.clock += c
	p.spin += c
}

// AdvanceIdle charges c ticks of idle (no runnable process) time.
func (p *Proc) AdvanceIdle(c Time) {
	p.clock += c
	p.idle += c
}

// StallUntil advances the processor's clock to t (if t is later),
// accounting the gap as garbage-collection stall time.
func (p *Proc) StallUntil(t Time) {
	if t > p.clock {
		p.m.rec.Emit(trace.KStall, p.id, int64(p.clock), int64(t-p.clock), 0, "")
		p.stall += t - p.clock
		p.clock = t
	}
}

// Stopped reports whether the machine has been shut down; work functions
// must poll it and return promptly when it becomes true.
func (p *Proc) Stopped() bool { return p.m.shutdown.Load() }

// Yield ends this processor's quantum. The next scheduling decision is
// made right here: when this processor is scheduled again Yield simply
// returns; otherwise the decision (another processor, or a stop) is left
// in the machine for Run, and the coroutine switches back to it.
func (p *Proc) Yield() {
	m := p.m
	if m.parallel {
		p.parYield()
		return
	}
	if m.shutdown.Load() {
		// Shutdown resumes each processor so its work function can
		// observe Stopped and return; don't reschedule.
		return
	}
	if p.idleFn != nil {
		panic(fmt.Sprintf("firefly: processor %d yielded inside its idle quantum", p.id))
	}
	m.rec.Emit(trace.KQuantumEnd, p.id, int64(p.clock), 0, 0, "")
	// The common case stays ahead of the loop: scheduled again, return.
	if next, reason := m.schedule(); next != p && m.settle(p, next, reason) != p {
		p.yield()
	}
}

// IdleResult is what one idle quantum reports to Idle.
type IdleResult int

const (
	// IdleYielded: the quantum is over and the processor is still idle.
	IdleYielded IdleResult = iota
	// IdleResume: the processor has work and its quantum is not over;
	// Idle returns with no scheduling decision in between.
	IdleResume
	// IdleResumeYielded: the processor has work and its quantum is over;
	// Idle returns when the processor is next scheduled.
	IdleResumeYielded
)

// Idle is the work loop of a processor with nothing to run: it behaves as
//
//	for { r := quantum(); if r != IdleResume { p.Yield() }; if r != IdleYielded { return } }
//
// and in parallel host mode is exactly that, on the processor's own
// goroutine. In deterministic mode the coroutine parks once and quantum
// becomes the processor's registered work: each time a scheduling decision
// picks the processor, settle calls quantum in place — on the yielder's
// coroutine or on the driver — and switches back here only when it reports
// work. Every quantum still runs, at the same virtual time and with the
// same events as the loop above; only the coroutine switches around it go.
// quantum may use everything a work function may except Yield and
// CheckYield (their deadline test is YieldSlack() <= 0). If it panics, the
// panic is raised here, on this processor's coroutine.
func (p *Proc) Idle(quantum func() IdleResult) {
	m := p.m
	if m.parallel {
		for !p.Stopped() {
			r := quantum()
			if r != IdleResume {
				p.parYield()
			}
			if r != IdleYielded {
				return
			}
		}
		return
	}
	if m.shutdown.Load() {
		return
	}
	p.idleFn = quantum
	if m.settle(p, p, 0) != p {
		p.yield()
	}
	p.idleFn = nil // still set when Shutdown or parRelease resumed us
	if e := p.idlePanic; e != nil {
		p.idlePanic = nil
		panic(e)
	}
}

// idleQuantum runs p's registered quantum on whichever coroutine is making
// scheduling decisions. A panic must not unwind that one (it would name
// the wrong processor, or escape Run from the driver): it is kept for Idle
// to re-raise and reported as "resume me now".
func (p *Proc) idleQuantum() (r IdleResult) {
	defer func() {
		if e := recover(); e != nil {
			p.idlePanic, r = e, IdleResume
		}
	}()
	return p.idleFn()
}

// CheckYield yields only when this processor has run past its current
// quantum deadline. Call it at safepoints (all live object references
// flushed to registered GC roots): the stop-the-world scavenger may run on
// another processor while this one is parked here.
func (p *Proc) CheckYield() {
	if p.clock >= p.yieldAt {
		p.Yield()
	}
}

// YieldSlack is the virtual time left before CheckYield would fire. A
// caller that will advance the clock strictly less than the slack can
// skip its intermediate CheckYield safepoints exactly: below the
// deadline they are pure no-ops, and nothing — scheduling, events, a
// stop-the-world rendezvous — can observe the processor in between.
// The compiled execution tier uses this to run fused bytecode groups
// without per-bytecode safepoints.
func (p *Proc) YieldSlack() Time { return p.yieldAt - p.clock }

// ProcStats is a snapshot of one processor's time accounting.
type ProcStats struct {
	Busy  Time `json:"busy_ticks"`
	Spin  Time `json:"spin_ticks"`
	Stall Time `json:"stall_ticks"`
	Idle  Time `json:"idle_ticks"`
	Clock Time `json:"clock_ticks"`
}

// Stats returns the processor's current time accounting.
func (p *Proc) Stats() ProcStats {
	return ProcStats{Busy: p.busy, Spin: p.spin, Stall: p.stall, Idle: p.idle, Clock: p.clock}
}

// SetActive marks whether this processor is executing a Smalltalk
// Process (true) or idling (false); the count feeds the memory-bus
// contention model.
func (p *Proc) SetActive(active bool) {
	if active == p.active {
		return
	}
	p.active = active
	if active {
		p.m.activeProcs.Add(1)
	} else {
		p.m.activeProcs.Add(-1)
	}
}

// ActiveProcs returns how many processors are executing Smalltalk
// Processes right now. The count is atomic because in parallel host
// mode the bus model reads it from every processor concurrently.
func (m *Machine) ActiveProcs() int { return int(m.activeProcs.Load()) }

type event struct {
	at  Time
	seq int
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Machine is the simulated multiprocessor.
type Machine struct {
	procs   []*Proc
	costs   Costs
	quantum Time
	limit   Time

	events   eventQueue
	eventSeq int

	locks []*Spinlock

	running     bool
	parReleased bool // parallel mode: coroutines released into free running
	shutdown    atomic.Bool

	// until is Run's stop predicate, checked between quanta wherever the
	// scheduling decision happens. next/stopReason are that decision:
	// the processor Run resumes next, or nil and why Run returns.
	until      func() bool
	next       *Proc
	stopReason StopReason

	switches atomic.Uint64

	// rec is the optional flight recorder; nil means tracing is off and
	// every emission site reduces to one pointer check.
	rec *trace.Recorder

	// san is the optional Table-3 invariant sanitizer (mscheck); nil
	// means checking is off and every hook site reduces to one pointer
	// check. Like the recorder it is pure observation: it never charges
	// virtual time.
	san *sanitize.Checker

	// lat is the optional latency-histogram registry; nil means the
	// latency distributions are off and every recording site reduces to
	// one pointer check. Like the recorder it is pure observation: it
	// never charges virtual time.
	lat *trace.LatencyHists

	// activeProcs counts processors currently executing Smalltalk
	// Processes (not idling). The shared memory bus degrades as more
	// processors actively execute; see Costs.BusDivisor.
	activeProcs atomic.Int32

	// Parallel host mode (see parallel.go). parallel is flipped once,
	// between Runs, while every coroutine is suspended, so the plain
	// reads on the hot paths are race-free by happens-before.
	parallel bool
	//msvet:stw-safe rendezvous bookkeeping lock: taken only for bounded counter/cond sections by the stopper and by parked processors, never while holding any simulated lock, so it cannot deadlock against the window
	parMu       sync.Mutex
	parCond     *sync.Cond
	parkedStop  int // procs parked waiting for the next Run
	parkedSTW   int // procs parked at a stop-the-world rendezvous
	runGen      uint64
	stopPending bool
	stwOwner    *Proc
	gcGen       uint64
	shutdownPar bool

	// parFlag is the parallel safepoint fast path: true whenever any
	// processor must divert into parSlow (stop requested, world being
	// stopped, or shutdown).
	parFlag atomic.Bool
}

// New creates a machine with n processors and the given cost model.
// The scheduling quantum defaults to 200 ticks.
func New(n int, costs Costs) *Machine {
	if n < 1 {
		panic("firefly: machine needs at least one processor")
	}
	m := &Machine{costs: costs, quantum: 200, limit: 1 << 62}
	m.parCond = sync.NewCond(&m.parMu)
	for i := 0; i < n; i++ {
		m.procs = append(m.procs, &Proc{id: i, m: m})
	}
	return m
}

// NumProcs returns the number of virtual processors.
func (m *Machine) NumProcs() int { return len(m.procs) }

// Proc returns processor i.
func (m *Machine) Proc(i int) *Proc { return m.procs[i] }

// Costs returns the machine's cost model.
func (m *Machine) Costs() *Costs { return &m.costs }

// SetQuantum sets the scheduling quantum in ticks. Smaller quanta give a
// finer-grained (more faithful) interleaving at more host overhead.
func (m *Machine) SetQuantum(q Time) {
	if q < 1 {
		q = 1
	}
	m.quantum = q
}

// SetTimeLimit caps virtual time; Run returns StopTimeLimit beyond it.
func (m *Machine) SetTimeLimit(t Time) { m.limit = t }

// Switches returns how many scheduling decisions picked a processor: one
// per quantum started, whether the quantum began with a coroutine switch,
// ran in place (Idle), or went back to the yielder itself.
func (m *Machine) Switches() uint64 { return m.switches.Load() }

// SetRecorder attaches a flight recorder; nil detaches it. Recording
// never changes virtual time or any counter, only observes them.
func (m *Machine) SetRecorder(r *trace.Recorder) { m.rec = r }

// Recorder returns the attached flight recorder, or nil.
func (m *Machine) Recorder() *trace.Recorder { return m.rec }

// SetSanitizer attaches an invariant checker; nil detaches it. Locks
// registered before attachment are backfilled so the attach order
// relative to subsystem construction does not matter.
func (m *Machine) SetSanitizer(s *sanitize.Checker) {
	m.san = s
	for _, l := range m.locks {
		s.RegisterLock(l.name, l.enabled)
	}
}

// Sanitizer returns the attached invariant checker, or nil.
func (m *Machine) Sanitizer() *sanitize.Checker { return m.san }

// SetLatencyHists attaches the latency-distribution registry; nil
// detaches it. Locks registered before attachment are backfilled with
// their acquire-wait histograms so the attach order relative to
// subsystem construction does not matter.
func (m *Machine) SetLatencyHists(l *trace.LatencyHists) {
	m.lat = l
	for _, lk := range m.locks {
		if lk.enabled {
			lk.waitHist = l.LockHist(lk.name)
		}
	}
}

// LatencyHists returns the attached latency registry, or nil.
func (m *Machine) LatencyHists() *trace.LatencyHists { return m.lat }

// Start installs fn as processor i's work function: a coroutine,
// suspended until the driver first schedules it. The function should
// loop until p.Stopped() reports true. A panic in fn marks the processor
// done and is re-raised in whoever resumed it — Run's caller, in
// deterministic mode.
func (m *Machine) Start(i int, fn func(p *Proc)) {
	p := m.procs[i]
	if p.co != nil {
		panic(fmt.Sprintf("firefly: processor %d already started", i))
	}
	p.co = newCoro(func(yield func()) {
		p.yield = yield
		defer func() {
			m.parMu.Lock()
			p.done = true
			m.parCond.Broadcast() // parallel mode: Run and Shutdown count live processors
			m.parMu.Unlock()
		}()
		fn(p)
	})
}

// At schedules fn to run at virtual time t (from the driver, between
// processor quanta, once every processor clock has reached t). Use it to
// inject external stimuli such as input events; fn must only touch
// device-level state, never the Smalltalk heap.
func (m *Machine) At(t Time, fn func()) {
	m.eventSeq++
	heap.Push(&m.events, &event{at: t, seq: m.eventSeq, fn: fn})
}

// live reports whether the processor has a work function still running.
func (p *Proc) live() bool { return p.co != nil && !p.done }

// minClocks returns the live processor with the smallest clock (the
// lowest-numbered on a tie) and the smallest clock among the other live
// processors — its own when it is the only one. best is nil when every
// processor is done.
func (m *Machine) minClocks() (best *Proc, second Time) {
	second = -1
	for _, p := range m.procs {
		switch {
		case !p.live():
		case best == nil:
			best = p
		case p.clock < best.clock:
			best, second = p, best.clock
		case second < 0 || p.clock < second:
			second = p.clock
		}
	}
	if best != nil && second < 0 {
		second = best.clock
	}
	return best, second
}

// schedule makes one scheduling decision: check the stop conditions,
// deliver external events that are due at or before the current virtual
// moment, and pick the processor with the smallest clock for its next
// quantum. It runs on the driver or on the yielding processor. A nil
// next means Run must return reason instead of dispatching.
func (m *Machine) schedule() (next *Proc, reason StopReason) {
	if m.until != nil && m.until() {
		return nil, StopUntil
	}
	p, second := m.minClocks()
	if p == nil {
		return nil, StopAllDone
	}
	for len(m.events) > 0 && m.events[0].at <= p.clock {
		e := heap.Pop(&m.events).(*event)
		e.fn()
	}
	if p.clock > m.limit {
		return nil, StopTimeLimit
	}
	p.yieldAt = second + m.quantum
	// Dispatch latency: how far the chosen (minimum-clock) processor
	// lags the rest of the system when its quantum starts. Purely
	// derived from the clocks; recording charges nothing.
	m.lat.Record(trace.Dispatch, int64(second-p.clock))
	m.switches.Add(1)
	m.rec.Emit(trace.KQuantumStart, p.id, int64(p.clock), 0, 0, "")
	return p, 0
}

// Run drives the machine until the predicate becomes true (checked between
// quanta), every work function returns, or virtual time passes the limit.
// Run may be called repeatedly to continue the same machine.
func (m *Machine) Run(until func() bool) StopReason {
	if m.running {
		panic("firefly: Run is not reentrant")
	}
	if m.shutdown.Load() {
		panic("firefly: machine is shut down")
	}
	m.running = true
	defer func() { m.running = false }()
	if m.parallel {
		return m.runParallel(until)
	}
	m.until = until
	defer func() { m.until = nil }()

	m.decide()
	for m.next != nil {
		p := m.next
		p.co()
		if p.done {
			// The work function returned; a Yield or an Idle would have
			// left the next decision behind.
			m.decide()
		}
	}
	return m.stopReason
}

// decide makes a decision of the driver's own: no processor's quantum
// ended, so nothing is handed off.
func (m *Machine) decide() {
	next, reason := m.schedule()
	m.settle(nil, next, reason)
}

// settle is the one scheduling loop, shared by Run, Yield and Idle and
// executed by whichever of them made the decision. It takes a decision
// (next and reason, as schedule returned them) made when prev's quantum
// ended — nil for the driver's own decisions, which hand nothing off —
// and carries it to the point where it needs a coroutine switch or ends
// the Run: while the chosen processor is idle its quantum runs right
// here, with the events its own Yield would have emitted, and the next
// decision is made in its name. The settled decision is left in the
// machine for Run and its processor returned.
func (m *Machine) settle(prev, next *Proc, reason StopReason) *Proc {
	for next != nil {
		if prev != nil && next != prev {
			m.rec.Emit(trace.KHandoff, prev.id, int64(prev.clock), int64(next.id), 0, "")
		}
		if next.idleFn == nil {
			break
		}
		if r := next.idleQuantum(); r != IdleYielded {
			next.idleFn = nil // it has work: the next switch to it returns from Idle
			if r == IdleResume {
				break
			}
		}
		m.rec.Emit(trace.KQuantumEnd, next.id, int64(next.clock), 0, 0, "")
		prev = next
		next, reason = m.schedule()
	}
	m.next, m.stopReason = next, reason
	return next
}

// StallOthers advances every processor except p to time t, accounting the
// gap as stop-the-world stall. A collector calls this from inside its
// window when it finishes; in parallel host mode the other processors
// are parked at the rendezvous (StopTheWorld), so p writes their clocks.
func (m *Machine) StallOthers(p *Proc, t Time) {
	for _, q := range m.procs {
		if q != p && !q.done {
			q.StallUntil(t)
		}
	}
}

// Shutdown tells every work function to return and waits for them. The
// machine cannot be used afterwards.
func (m *Machine) Shutdown() {
	if m.shutdown.Load() {
		return
	}
	m.shutdown.Store(true)
	if m.parallel {
		m.shutdownParallel()
		return
	}
	for _, p := range m.procs {
		if p.live() {
			p.co() // every Yield now returns at once, so fn runs to its return
		}
	}
}

// LockStats describes one virtual spinlock's history.
type LockStats struct {
	Name         string `json:"name"`
	Acquisitions uint64 `json:"acquisitions"`
	Contentions  uint64 `json:"contentions"`
	SpinTime     Time   `json:"spin_ticks"`
}

// LockStats returns statistics for every registered lock, in registration
// order.
func (m *Machine) LockStats() []LockStats {
	out := make([]LockStats, 0, len(m.locks))
	for _, l := range m.locks {
		out = append(out, LockStats{
			Name:         l.name,
			Acquisitions: l.acquisitions.Load(),
			Contentions:  l.contentions.Load(),
			SpinTime:     Time(l.spinTime.Load()),
		})
	}
	return out
}
