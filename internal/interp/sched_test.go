package interp

import (
	"strings"
	"testing"

	"mst/internal/compiler"
	"mst/internal/firefly"
	"mst/internal/heap"
	"mst/internal/object"
)

func TestPriorityPreemptionOnSignal(t *testing.T) {
	vm := testVM(t, 1, nil)
	// A high-priority Process blocked on a semaphore preempts the
	// signalling lower-priority Process the moment it is signalled:
	// the order array must show the high-priority side ran first
	// after the signal.
	src := `| sem order slot |
		sem := Semaphore new.
		order := Array new: 4.
		slot := Array with: 1.
		[sem wait.
		 order at: (slot at: 1) put: #high.
		 slot at: 1 put: (slot at: 1) + 1] fork.
		Processor yield.
		(Processor thisProcess) priority: 4.
		1 to: 200 do: [:i | i + i].
		sem signal.
		order at: (slot at: 1) put: #low.
		order at: 1`
	// The forked process runs at priority 5 (inherited); the main
	// process lowers itself to 4 before signalling.
	res := evalOOP(t, vm, src)
	if vm.SymbolName(res) != "high" {
		t.Fatalf("first after signal = %s, want high", vm.DescribeOOP(res))
	}
}

func TestSuspendAndResumeFromAnotherProcess(t *testing.T) {
	vm := testVM(t, 2, nil)
	src := `| worker log sem |
		log := Array with: 0.
		sem := Semaphore new.
		worker := [[true] whileTrue: [log at: 1 put: (log at: 1) + 1]] newProcess.
		worker resume.
		1 to: 2000 do: [:i | i].
		worker suspend.
		sem signal.
		sem wait.
		log at: 1`
	n := evalInt(t, vm, src)
	if n == 0 {
		t.Fatal("worker never ran before suspension")
	}
	// After suspension the worker must not be runnable.
	if got := evalOOP(t, vm, "| p | p := [nil] newProcess. p canRun"); got != object.False {
		t.Fatalf("fresh process canRun = %v", got)
	}
}

func TestTerminateBlockedProcess(t *testing.T) {
	vm := testVM(t, 1, nil)
	src := `| sem p |
		sem := Semaphore new.
		p := [sem wait. 99] newProcess.
		p resume.
		Processor yield.
		p terminate.
		p canRun`
	if got := evalOOP(t, vm, src); got != object.False {
		t.Fatalf("terminated process canRun = %s", vm.DescribeOOP(got))
	}
}

func TestCanRunDoesNotDistinguishReadyFromRunning(t *testing.T) {
	vm := testVM(t, 1, nil)
	// The running Process itself answers true (it is on the ready
	// queue in state Running — the paper's §3.3 semantics).
	if got := evalOOP(t, vm, "Processor canRun: Processor thisProcess"); got != object.True {
		t.Fatalf("canRun: thisProcess = %s", vm.DescribeOOP(got))
	}
	// A ready-but-not-running Process also answers true.
	src := `| p |
		p := [1 to: 1000 do: [:i | i]] newProcess.
		p resume.
		Processor canRun: p`
	if got := evalOOP(t, vm, src); got != object.True {
		t.Fatalf("canRun: ready = %s", vm.DescribeOOP(got))
	}
}

func TestReadyQueueContainsRunningProcess(t *testing.T) {
	vm := testVM(t, 1, nil)
	// MS keeps running Processes on the ready queue: the current
	// Process must be linked on its priority's list.
	src := `| me list found link |
		me := Processor thisProcess.
		found := false.
		list := (Processor instVarAt: 1) at: 5.
		link := list instVarAt: 1.
		[link isNil] whileFalse: [
			link == me ifTrue: [found := true].
			link := link instVarAt: 4].
		found`
	if got := evalOOP(t, vm, src); got != object.True {
		t.Fatal("running Process not on the ready queue")
	}
}

func TestSemaphoreExcessSignals(t *testing.T) {
	vm := testVM(t, 1, nil)
	src := `| sem |
		sem := Semaphore new.
		sem signal. sem signal. sem signal.
		sem wait. sem wait. sem wait.
		42`
	if got := evalInt(t, vm, src); got != 42 {
		t.Fatalf("excess signals = %d", got)
	}
}

func TestManyProcessesFewProcessors(t *testing.T) {
	vm := testVM(t, 2, nil)
	// Eight workers on two processors: all must complete.
	src := `| sem count |
		sem := Semaphore new.
		count := Array with: 0.
		8 timesRepeat: [
			[count at: 1 put: (count at: 1) + 1. sem signal] fork].
		8 timesRepeat: [sem wait].
		count at: 1`
	if got := evalInt(t, vm, src); got != 8 {
		t.Fatalf("completed workers = %d", got)
	}
}

func TestProcessPriorities(t *testing.T) {
	vm := testVM(t, 1, nil)
	// On one processor, a ready high-priority Process runs before a
	// ready low-priority one once the main Process blocks.
	src := `| sem order slot p1 p2 |
		sem := Semaphore new.
		order := Array new: 2.
		slot := Array with: 1.
		p1 := [order at: (slot at: 1) put: #low. slot at: 1 put: 2. sem signal] newProcess.
		p1 priority: 2.
		p2 := [order at: (slot at: 1) put: #high. slot at: 1 put: 2. sem signal] newProcess.
		p2 priority: 7.
		p1 resume.
		p2 resume.
		sem wait. sem wait.
		order at: 1`
	res := evalOOP(t, vm, src)
	if vm.SymbolName(res) != "high" {
		t.Fatalf("first completed = %s, want high", vm.DescribeOOP(res))
	}
}

func TestSchedulerStateVisibleFromSmalltalk(t *testing.T) {
	vm := testVM(t, 1, nil)
	// The ready queue is an ordinary object graph ("one of the few
	// systems in which one can directly examine the ready queue").
	if got := evalOOP(t, vm, "(Processor instVarAt: 1) class == Array"); got != object.True {
		t.Fatal("quiescentProcessLists not an Array")
	}
}

func TestYieldRoundRobin(t *testing.T) {
	vm := testVM(t, 1, nil)
	// Two cooperating processes interleave via yield on a single
	// processor; both make progress in strict alternation.
	src := `| a done |
		a := Array new: 20.
		done := Semaphore new.
		[1 to: 10 do: [:i | a at: i * 2 - 1 put: #one. Processor yield]. done signal] fork.
		[1 to: 10 do: [:i | a at: i * 2 put: #two. Processor yield]. done signal] fork.
		done wait. done wait.
		((a at: 1) == #one and: [(a at: 2) == #two]) ifTrue: [1] ifFalse: [0]`
	if got := evalInt(t, vm, src); got != 1 {
		t.Fatal("yield did not interleave processes")
	}
}

func TestBusFactorChargesActiveProcessors(t *testing.T) {
	// The same computation takes longer (in its own virtual time) when
	// other processors are actively executing Smalltalk.
	elapsed := func(background int) int64 {
		vm := testVM(t, 5, func(cfg *Config, hcfg *heap.Config) {})
		for i := 0; i < background; i++ {
			if _, err := vm.Evaluate("[[true] whileTrue] fork"); err != nil {
				t.Fatal(err)
			}
		}
		return evalInt(t, vm,
			"| t | t := 0. 1 to: 5000 do: [:i | t := t + i]. t")
	}
	// Identical results, but not identical virtual cost: measure via
	// the machine clock instead. Simplest check: with background the
	// result is the same; the timing effect is asserted end-to-end in
	// the bench package.
	if elapsed(0) != elapsed(4) {
		t.Fatal("computation result changed under load")
	}
}

// TestIdleQuantumResults calls the idle quantum by hand, as processor 0's
// work function, and holds each arm to what the idle loop it replaced did
// at that point: which result, how many polls, and no scheduling decision
// of its own.
func TestIdleQuantumResults(t *testing.T) {
	vm := bootTestVM(t, 2, nil)
	vm.M.SetQuantum(200)
	in, costs := vm.Interps[0], vm.M.Costs()
	contentions := func() uint64 {
		for _, l := range vm.M.LockStats() {
			if l.Name == "scheduler" {
				return l.Contentions
			}
		}
		t.Error("no scheduler lock")
		return 0
	}
	vm.M.Start(0, func(p *firefly.Proc) {
		// Queued Go-side work: resume at once, nothing polled or charged.
		vm.pendingWork = append(vm.pendingWork, func(*firefly.Proc) {})
		before := p.Stats()
		if r := in.idleQuantum(); r != firefly.IdleResume || p.Stats() != before {
			t.Errorf("with work queued: result %v, stats %+v -> %+v", r, before, p.Stats())
		}
		vm.pendingWork = nil

		// The scheduler lock taken by a processor ahead in virtual time:
		// every poll below the deadline fails and is repeated with no
		// scheduling decision; the one that crosses it yields, once.
		q := vm.M.Proc(1)
		q.Advance(p.Now() + 10_000)
		vm.schedLock.Acquire(q)
		vm.schedLock.Release(q)
		p.Yield() // a fresh deadline
		decisions, idle, failed := vm.M.Switches(), p.Stats().Idle, contentions()
		r := in.idleQuantum()
		polls := uint64((p.Stats().Idle - idle) / costs.IdlePoll)
		if r != firefly.IdleYielded || polls < 2 || contentions()-failed != polls ||
			p.YieldSlack() > 0 || vm.M.Switches() != decisions || in.idleYieldAgain {
			t.Errorf("contended: result %v after %d polls, %d failed TryAcquires, slack %d, %d decisions, again=%v",
				r, polls, contentions()-failed, p.YieldSlack(), vm.M.Switches()-decisions, in.idleYieldAgain)
		}

		// The lock free, nothing ready, and the poll ends past its
		// deadline: yielded, and yielded again before the next poll.
		p.Advance(q.Now())
		p.Yield()
		p.AdvanceIdle(250)
		clock := p.Now()
		if r := in.idleQuantum(); r != firefly.IdleYielded || p.Now() == clock || !in.idleYieldAgain {
			t.Errorf("late poll: result %v, polled %v, again=%v", r, p.Now() != clock, in.idleYieldAgain)
		}
		clock = p.Now()
		if r := in.idleQuantum(); r != firefly.IdleYielded || p.Now() != clock || in.idleYieldAgain {
			t.Errorf("second yield: result %v, polled %v, again=%v", r, p.Now() != clock, in.idleYieldAgain)
		}
		p.Yield()
		if r := in.idleQuantum(); r != firefly.IdleYielded || p.Now() == clock || in.idleYieldAgain {
			t.Errorf("poll in time: result %v, polled %v, again=%v", r, p.Now() != clock, in.idleYieldAgain)
		}

		// A ready Process: picked up, and the quantum goes on — unless the
		// poll that found it ran past the deadline.
		m, err := compiler.CompileExpression("3 + 4", vm.EnvForClass(vm.Specials.UndefinedObject))
		if err != nil {
			t.Error(err)
			return
		}
		proc := vm.NewProcessForMethod(p, vm.MaterializeMethod(p, m, vm.Specials.UndefinedObject, "doits"),
			object.Nil, UserPriority)
		vm.scheduleProcess(p, proc)
		p.Yield()
		if r := in.idleQuantum(); r != firefly.IdleResume || in.proc != proc {
			t.Errorf("found work in time: result %v, running %v", r, in.proc == proc)
		}
		vm.H.StoreNoCheck(proc, PrState, object.FromInt(StateReady))
		in.setProc(object.Nil)
		p.Yield()
		p.AdvanceIdle(250)
		if r := in.idleQuantum(); r != firefly.IdleResumeYielded || in.proc != proc {
			t.Errorf("found work late: result %v, running %v", r, in.proc == proc)
		}
	})
	if r := vm.M.Run(nil); r != firefly.StopAllDone {
		t.Fatalf("Run = %v", r)
	}
}

// TestIdleInterpreterPanicNamesItself: an idle interpreter's poll runs on
// whichever coroutine is making scheduling decisions; when it dies there
// (a VM error in strict mode), the death is still that interpreter's own
// — its Run recovers it, under its id — and the interpreter whose yield
// was executing the poll carries on.
func TestIdleInterpreterPanicNamesItself(t *testing.T) {
	vm := testVM(t, 2, nil)
	if got := evalInt(t, vm, "3 + 4"); got != 7 { // both interpreters have run; 1 is parked idle
		t.Fatalf("3 + 4 = %d", got)
	}
	var bad object.OOP
	finished := false
	err := vm.Do(func(p *firefly.Proc) {
		// A ready Process with no context kills whoever switches to it.
		bad = vm.allocFields(p, vm.Specials.Process, ProcessInstSize)
		vm.H.StoreNoCheck(bad, PrPriority, object.FromInt(UserPriority))
		vm.scheduleProcess(p, bad)
		for !p.Stopped() {
			p.Advance(100)
			p.Yield() // interpreter 1 polls in place, under this yield
		}
		finished = true
	})
	if err == nil || !strings.Contains(err.Error(), "interpreter 1 died") ||
		!strings.Contains(err.Error(), "no suspended context") {
		t.Fatalf("Do returned %v, want interpreter 1's death", err)
	}
	if vm.Interps[1].proc != bad || vm.Interps[0].proc == bad {
		t.Errorf("the context-less Process is not on the interpreter that died")
	}
	vm.M.Shutdown()
	if !finished {
		t.Errorf("interpreter 0's work was unwound with interpreter 1")
	}
}
