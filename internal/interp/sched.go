package interp

import (
	"math"
	"runtime"
	"slices"

	"mst/internal/firefly"
	"mst/internal/object"
	"mst/internal/trace"
)

// The scheduler follows the paper's design:
//
//   - There is ONE ProcessorScheduler and one priority-queue of ready
//     Processes shared by all interpreters, guarded by a virtual lock
//     ("these events are relatively infrequent, so serialization through
//     a lock on the queue is adequate").
//   - MS does NOT remove a Process from the ready queue when it starts
//     running ("the ready queue contains all Processes which are ready
//     to run including those running"); the state word distinguishes
//     them, and the canRun: primitive answers without distinguishing
//     running from ready.
//   - The activeProcess slot of the ProcessorScheduler is ignored: only
//     the interpreter knows which Process it is executing (thisProcess).

// readyList returns the LinkedList for priority (1-based).
func (vm *VM) readyList(priority int) object.OOP {
	lists := vm.H.Fetch(vm.Specials.Scheduler, SchedLists)
	return vm.H.Fetch(lists, priority-1)
}

// sanAccess reports an access to a serialized interpreter structure to
// the invariant checker; call it from inside the guarding critical
// section.
func (vm *VM) sanAccess(p *firefly.Proc, structure string) {
	vm.san.OnAccess(p.ID(), int64(p.Now()), structure)
}

// listAppend links proc at the tail of list. Caller holds the lock.
func (vm *VM) listAppend(p *firefly.Proc, list, proc object.OOP) {
	h := vm.H
	vm.sanAccess(p, "ready-queue")
	p.Advance(vm.M.Costs().SchedOp)
	h.Store(p, proc, PrMyList, list)
	h.StoreNoCheck(proc, PrNextLink, object.Nil)
	last := h.Fetch(list, LLLast)
	if last == object.Nil {
		h.Store(p, list, LLFirst, proc)
	} else {
		h.Store(p, last, PrNextLink, proc)
	}
	h.Store(p, list, LLLast, proc)
}

// listRemove unlinks proc from list; reports whether it was present.
// Caller holds the lock.
func (vm *VM) listRemove(p *firefly.Proc, list, proc object.OOP) bool {
	h := vm.H
	vm.sanAccess(p, "ready-queue")
	p.Advance(vm.M.Costs().SchedOp)
	prev := object.Nil
	cur := h.Fetch(list, LLFirst)
	for cur != object.Nil {
		if cur == proc {
			next := h.Fetch(cur, PrNextLink)
			if prev == object.Nil {
				h.Store(p, list, LLFirst, next)
			} else {
				h.Store(p, prev, PrNextLink, next)
			}
			if h.Fetch(list, LLLast) == proc {
				h.Store(p, list, LLLast, prev)
			}
			h.StoreNoCheck(proc, PrNextLink, object.Nil)
			h.StoreNoCheck(proc, PrMyList, object.Nil)
			return true
		}
		prev = cur
		cur = h.Fetch(cur, PrNextLink)
	}
	return false
}

// unlinkFromCurrentList removes proc from whatever list it is on.
func (vm *VM) unlinkFromCurrentList(p *firefly.Proc, proc object.OOP) {
	list := vm.H.Fetch(proc, PrMyList)
	if list != object.Nil {
		vm.listRemove(p, list, proc)
	}
}

// findReady returns the highest-priority Process in state Ready (running
// Processes stay on the queue and are skipped). Caller holds the lock.
func (vm *VM) findReady(p *firefly.Proc) object.OOP {
	h := vm.H
	vm.sanAccess(p, "ready-queue")
	for pri := NumPriorities; pri >= 1; pri-- {
		list := vm.readyList(pri)
		cur := h.Fetch(list, LLFirst)
		for cur != object.Nil {
			p.Advance(vm.M.Costs().SchedOp)
			if h.Fetch(cur, PrState).Int() == StateReady {
				return cur
			}
			cur = h.Fetch(cur, PrNextLink)
		}
	}
	return object.Nil
}

// switchToProcess makes proc (state already set to Running, still on the
// ready queue) this interpreter's current Process.
func (in *Interp) switchToProcess(proc object.OOP) {
	vm := in.vm
	in.stats.ProcessSwitches++
	// The raw oop value identifies the Process; IdentityHash would
	// lazily assign hash bits (a heap mutation) and so is off-limits.
	in.rec.Emit(trace.KProcessSwitch, in.p.ID(), int64(in.p.Now()), int64(proc), 0, "")
	in.p.Advance(vm.M.Costs().ProcessSwitch)
	in.setProc(proc)
	ctx := vm.H.Fetch(proc, PrSuspendedContext)
	if ctx == object.Nil {
		vm.vmError("process with no suspended context")
		in.setProc(object.Nil)
		return
	}
	in.loadContext(ctx)
}

// parkCurrent flushes the interpreter registers into the current
// Process, leaving it in newState. Caller holds the lock.
func (in *Interp) parkCurrent(newState int64) {
	vm := in.vm
	in.flushRegisters()
	vm.H.Store(in.p, in.proc, PrSuspendedContext, in.ctx)
	vm.H.StoreNoCheck(in.proc, PrState, object.FromInt(newState))
}

// pickNext selects the next ready Process (caller holds the lock) and
// switches to it, or goes idle.
func (in *Interp) pickNext() {
	next := in.vm.findReady(in.p)
	if next == object.Nil {
		in.setProc(object.Nil)
		in.ctx = object.Nil
		in.slotCap = 0
		in.bindFrames()
		if in.vm.prof != nil {
			in.profIdle()
		}
		return
	}
	in.vm.H.StoreNoCheck(next, PrState, object.FromInt(StateRunning))
	in.switchToProcess(next)
}

// abandonCurrent is called when another processor suspended or
// terminated our Process: flush state into it and schedule away.
func (in *Interp) abandonCurrent() {
	vm := in.vm
	vm.schedLock.Acquire(in.p)
	st := vm.H.Fetch(in.proc, PrState).Int()
	if st == StateRunning {
		// It was re-resumed before we noticed; keep going.
		vm.schedLock.Release(in.p)
		return
	}
	in.flushRegisters()
	vm.H.Store(in.p, in.proc, PrSuspendedContext, in.ctx)
	in.pickNext()
	vm.schedLock.Release(in.p)
}

// processCompleted handles a Process returning from its final context.
func (in *Interp) processCompleted(val object.OOP) {
	vm := in.vm
	// The eval rendezvous result must survive until the caller reads
	// it; evalResult is a root.
	vm.hostMu.Lock()
	if in.proc == vm.evalProc && in.proc != object.Nil {
		vm.evalResult = val
		vm.evalDone.Store(true)
	}
	vm.hostMu.Unlock()
	vm.schedLock.Acquire(in.p)
	vm.H.StoreNoCheck(in.proc, PrState, object.FromInt(StateTerminated))
	vm.unlinkFromCurrentList(in.p, in.proc)
	vm.H.StoreNoCheck(in.proc, PrSuspendedContext, object.Nil)
	in.pickNext()
	vm.schedLock.Release(in.p)
}

// terminateCurrentProcess kills the running Process after a VM error.
func (in *Interp) terminateCurrentProcess() {
	if in.proc == object.Nil {
		return
	}
	in.vm.hostMu.Lock()
	if in.proc == in.vm.evalProc {
		in.vm.evalFailed = "process terminated by VM error"
		in.vm.evalResult = object.Nil
		in.vm.evalDone.Store(true)
	}
	in.vm.hostMu.Unlock()
	in.processCompleted(object.Nil)
}

// scheduleProcess puts proc (suspended) on the ready queue in state
// Ready. Used from Go when spawning evaluation Processes.
func (vm *VM) scheduleProcess(p *firefly.Proc, proc object.OOP) {
	vm.schedLock.Acquire(p)
	vm.H.StoreNoCheck(proc, PrState, object.FromInt(StateReady))
	pri := int(vm.H.Fetch(proc, PrPriority).Int())
	vm.listAppend(p, vm.readyList(pri), proc)
	vm.schedLock.Release(p)
}

// ---- Semaphores ----

// semWait implements Semaphore>>wait on the current Process.
func (in *Interp) semWait(sem object.OOP) {
	vm := in.vm
	h := vm.H
	in.stats.SemWaits++
	vm.schedLock.Acquire(in.p)
	excess := h.Fetch(sem, SemExcess).Int()
	if excess > 0 {
		h.StoreNoCheck(sem, SemExcess, object.FromInt(excess-1))
		vm.schedLock.Release(in.p)
		return
	}
	// Block: off the ready queue, onto the semaphore's list.
	vm.unlinkFromCurrentList(in.p, in.proc)
	in.parkCurrent(StateBlocked)
	vm.listAppendSem(in.p, sem, in.proc)
	in.pickNext()
	vm.schedLock.Release(in.p)
}

// listAppendSem links proc on a semaphore's waiter list (same layout as
// LinkedList).
func (vm *VM) listAppendSem(p *firefly.Proc, sem, proc object.OOP) {
	vm.listAppend(p, sem, proc)
}

// semSignal implements Semaphore>>signal: wake the first waiter, or
// count an excess signal. The signalling interpreter preempts itself
// when it wakes a higher-priority Process (Smalltalk-80 semantics).
func (in *Interp) semSignal(sem object.OOP) {
	vm := in.vm
	h := vm.H
	in.stats.SemSignals++
	vm.schedLock.Acquire(in.p)
	first := h.Fetch(sem, LLFirst)
	if first == object.Nil {
		h.StoreNoCheck(sem, SemExcess,
			object.FromInt(h.Fetch(sem, SemExcess).Int()+1))
		vm.schedLock.Release(in.p)
		return
	}
	vm.listRemove(in.p, sem, first)
	h.StoreNoCheck(first, PrState, object.FromInt(StateReady))
	pri := int(h.Fetch(first, PrPriority).Int())
	vm.listAppend(in.p, vm.readyList(pri), first)

	if in.proc != object.Nil {
		curPri := int(h.Fetch(in.proc, PrPriority).Int())
		if pri > curPri {
			// Preempt ourselves in favour of the woken Process.
			in.parkCurrent(StateReady)
			h.StoreNoCheck(first, PrState, object.FromInt(StateRunning))
			in.switchToProcess(first)
		}
	}
	vm.schedLock.Release(in.p)
}

// semSignalFromGo signals a semaphore outside any Smalltalk Process
// (timer expiry, input events): the calling interpreter does the work
// but never preempts itself.
func (in *Interp) semSignalFromGo(sem object.OOP) {
	vm := in.vm
	h := vm.H
	in.stats.SemSignals++
	vm.schedLock.Acquire(in.p)
	first := h.Fetch(sem, LLFirst)
	if first == object.Nil {
		h.StoreNoCheck(sem, SemExcess,
			object.FromInt(h.Fetch(sem, SemExcess).Int()+1))
	} else {
		vm.listRemove(in.p, sem, first)
		h.StoreNoCheck(first, PrState, object.FromInt(StateReady))
		pri := int(h.Fetch(first, PrPriority).Int())
		vm.listAppend(in.p, vm.readyList(pri), first)
	}
	vm.schedLock.Release(in.p)
}

// ---- Process primitives' cores ----

// procResume makes target runnable; reports primitive success.
func (in *Interp) procResume(target object.OOP) bool {
	vm := in.vm
	h := vm.H
	vm.schedLock.Acquire(in.p)
	st := h.Fetch(target, PrState).Int()
	if st != StateSuspended {
		vm.schedLock.Release(in.p)
		return st == StateReady || st == StateRunning // resume of runnable: no-op
	}
	h.StoreNoCheck(target, PrState, object.FromInt(StateReady))
	pri := int(h.Fetch(target, PrPriority).Int())
	vm.listAppend(in.p, vm.readyList(pri), target)
	if in.proc != object.Nil {
		curPri := int(h.Fetch(in.proc, PrPriority).Int())
		if pri > curPri {
			in.parkCurrent(StateReady)
			h.StoreNoCheck(target, PrState, object.FromInt(StateRunning))
			in.switchToProcess(target)
		}
	}
	vm.schedLock.Release(in.p)
	return true
}

// procSuspend suspends target (possibly the current Process, possibly
// one running on another interpreter — the asynchronous manipulation
// the paper's reorganization section discusses).
func (in *Interp) procSuspend(target object.OOP) bool {
	vm := in.vm
	h := vm.H
	vm.schedLock.Acquire(in.p)
	if target == in.proc {
		vm.unlinkFromCurrentList(in.p, target)
		in.parkCurrent(StateSuspended)
		in.pickNext()
		vm.schedLock.Release(in.p)
		return true
	}
	st := h.Fetch(target, PrState).Int()
	switch st {
	case StateReady, StateBlocked:
		vm.unlinkFromCurrentList(in.p, target)
		h.StoreNoCheck(target, PrState, object.FromInt(StateSuspended))
	case StateRunning:
		// Running on another interpreter: mark suspended and unlink;
		// that interpreter notices at its next quantum boundary.
		vm.unlinkFromCurrentList(in.p, target)
		h.StoreNoCheck(target, PrState, object.FromInt(StateSuspended))
	}
	vm.schedLock.Release(in.p)
	return true
}

// procTerminate kills target.
func (in *Interp) procTerminate(target object.OOP) bool {
	vm := in.vm
	h := vm.H
	if target == in.proc {
		vm.hostMu.Lock()
		if in.proc == vm.evalProc {
			vm.evalResult = object.Nil
			vm.evalDone.Store(true)
		}
		vm.hostMu.Unlock()
		in.processCompleted(object.Nil)
		return true
	}
	vm.schedLock.Acquire(in.p)
	vm.unlinkFromCurrentList(in.p, target)
	h.StoreNoCheck(target, PrState, object.FromInt(StateTerminated))
	h.StoreNoCheck(target, PrSuspendedContext, object.Nil)
	vm.schedLock.Release(in.p)
	return true
}

// procYield gives other Processes at the same priority a chance.
func (in *Interp) procYield() {
	vm := in.vm
	vm.schedLock.Acquire(in.p)
	// Move to the back of our priority's queue and reschedule.
	vm.unlinkFromCurrentList(in.p, in.proc)
	in.parkCurrent(StateReady)
	pri := int(vm.H.Fetch(in.proc, PrPriority).Int())
	vm.listAppend(in.p, vm.readyList(pri), in.proc)
	in.pickNext()
	vm.schedLock.Release(in.p)
}

// canRun answers the paper's replacement for activeProcess queries:
// whether the Process is ready or running (deliberately not
// distinguishing the two, since the answer could change concurrently).
func (in *Interp) canRun(target object.OOP) bool {
	st := in.vm.H.Fetch(target, PrState).Int()
	return st == StateReady || st == StateRunning
}

// ---- Idle loop and device polling ----

// idleQuantum is one scheduling quantum of an interpreter with no
// Process — the function Quantum hands to Proc.Idle, which calls it each
// time this processor is scheduled, in deterministic mode on whichever
// coroutine made that decision: poll the devices and the ready queue
// cheaply, with the V kernel Delay equivalent between polls, and report
// whether the quantum is over and whether there is now something to run.
// In parallel host mode an idle interpreter also yields its OS thread so
// busy processors (and single-core hosts) get the cycles.
//
//msvet:defined-once firefly.(*Spinlock).TryAcquire the idle poll's lock sequence (TryAcquire the scheduler lock, scan, Release) exists once, for det and -parallel mode; a second TryAcquire site is a second idle loop
func (in *Interp) idleQuantum() firefly.IdleResult {
	vm := in.vm
	if in.idleYieldAgain {
		// The last poll ended past the deadline and found nothing: the
		// deadline's yield, then the idle loop's own — two scheduling
		// decisions before the next poll.
		in.idleYieldAgain = false
		return firefly.IdleYielded
	}
	if in == vm.Interps[0] && len(vm.pendingWork) > 0 {
		return firefly.IdleResume // Quantum drains it on our own coroutine
	}
	for {
		in.pollDevices()
		if vm.par {
			runtime.Gosched()
		}
		in.p.AdvanceIdle(in.costs.IdlePoll)
		if vm.schedLock.TryAcquire(in.p) {
			break
		}
		if in.p.YieldSlack() <= 0 {
			return firefly.IdleYielded
		}
		// Contended below the deadline: poll again, no scheduling decision.
	}
	if next := vm.findReady(in.p); next != object.Nil {
		vm.H.StoreNoCheck(next, PrState, object.FromInt(StateRunning))
		in.switchToProcess(next)
	}
	vm.schedLock.Release(in.p)
	late := in.p.YieldSlack() <= 0
	switch {
	case in.proc == object.Nil:
		in.idleYieldAgain = late
		return firefly.IdleYielded
	case late:
		return firefly.IdleResumeYielded
	}
	return firefly.IdleResume
}

// pollDevices transfers expired delays and pending input events into
// the Smalltalk world ("the interpreter must manipulate
// [the scheduler] asynchronously, in response to input events").
// The device queues live under devMu; each expired entry is popped
// under the mutex but signalled outside it, because the semaphore
// signal takes the virtual scheduler lock and host-mutex critical
// sections must stay brief. No safepoint lies between pop and signal,
// so the raw sem oop cannot go stale.
func (in *Interp) pollDevices() {
	vm := in.vm
	in.p.Advance(in.costs.EventPoll)
	// Timers. nextWake is the head of the delay list (max-int when it is
	// empty), so the common poll — nothing due — touches no host mutex.
	for vm.nextWake.Load() <= int64(in.p.Now()) {
		vm.devMu.Lock()
		if len(vm.delays) == 0 || vm.delays[0].wake > in.p.Now() {
			vm.devMu.Unlock() // parallel mode: another processor took it
			break
		}
		sem := vm.delays[0].sem
		vm.delays = slices.Delete(vm.delays, 0, 1) // clears the vacated slot
		vm.publishNextWake()
		vm.devMu.Unlock()
		in.semSignalFromGo(sem)
	}
	// Input events: signal the input semaphore once per pending event.
	for vm.Sensor.HasPending() {
		e, ok := vm.Sensor.Take(in.p)
		if !ok {
			break
		}
		vm.devMu.Lock()
		vm.inputQueue = append(vm.inputQueue, e)
		vm.devMu.Unlock()
		in.semSignalFromGo(vm.Specials.InputSem)
	}
}

// registerDelay arranges for sem to be signalled at wake time.
func (vm *VM) registerDelay(wake firefly.Time, sem object.OOP) {
	vm.devMu.Lock()
	vm.delays = append(vm.delays, delayEntry{wake: wake, sem: sem})
	// Keep sorted by wake time (the queue is tiny).
	for i := len(vm.delays) - 1; i > 0 && vm.delays[i].wake < vm.delays[i-1].wake; i-- {
		vm.delays[i], vm.delays[i-1] = vm.delays[i-1], vm.delays[i]
	}
	vm.publishNextWake()
	vm.devMu.Unlock()
}

// publishNextWake republishes the head of the delay list for pollDevices'
// lock-free test. Caller holds devMu.
func (vm *VM) publishNextWake() {
	wake := firefly.Time(math.MaxInt64)
	if len(vm.delays) > 0 {
		wake = vm.delays[0].wake
	}
	vm.nextWake.Store(int64(wake))
}
