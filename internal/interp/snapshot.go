package interp

import (
	"fmt"

	"mst/internal/firefly"
	"mst/internal/heap"
	"mst/internal/jit"
	"mst/internal/object"
)

// VMTables is the serializable VM-level state accompanying a heap
// snapshot: the well-known objects and the native tables whose entries
// are heap oops.
type VMTables struct {
	Specials         Specials
	SymbolList       []object.OOP
	CharTable        []object.OOP
	SpecialSelectors []object.OOP
}

// SnapshotTables captures the VM tables for serialization.
func (vm *VM) SnapshotTables() *VMTables {
	return &VMTables{
		Specials:         vm.Specials,
		SymbolList:       append([]object.OOP(nil), vm.symbolList...),
		CharTable:        append([]object.OOP(nil), vm.charTable...),
		SpecialSelectors: append([]object.OOP(nil), vm.specialSelectors...),
	}
}

// RestoreVM builds a VM over a restored heap, reinstating the tables
// instead of running Genesis. The symbol index is rebuilt from the
// symbols' own bytes. Interpreters start idle; any Processes on the
// image's ready queue resume when the machine runs.
func RestoreVM(m *firefly.Machine, h *heap.Heap, cfg Config, t *VMTables) (*VM, error) {
	vm := New(m, h, cfg)
	vm.Specials = t.Specials
	vm.symbolList = append([]object.OOP(nil), t.SymbolList...)
	vm.charTable = append([]object.OOP(nil), t.CharTable...)
	vm.specialSelectors = append([]object.OOP(nil), t.SpecialSelectors...)
	vm.symbolIdx = make(map[string]int, len(vm.symbolList))
	for i, sym := range vm.symbolList {
		if !sym.IsPtr() || sym == object.Nil {
			return nil, fmt.Errorf("interp: snapshot symbol %d is not an object", i)
		}
		vm.symbolIdx[vm.SymbolName(sym)] = i
	}
	// The paper empties the activeProcess slot after a snapshot; a
	// loaded MS image ignores it, but keep the invariant anyway.
	h.StoreNoCheck(vm.Specials.Scheduler, SchedActive, object.Nil)
	vm.StartInterpreters()
	return vm, nil
}

// ParkAllProcesses flushes every interpreter's running Process into the
// heap (registers into its suspended context, state back to Ready on
// the shared ready queue — MS keeps running Processes queued, so no
// relinking is needed). Interpreters notice their Process is no longer
// Running at the next quantum boundary and reschedule, so execution
// continues seamlessly in the running image while the flushed state is
// what a snapshot sees.
func (vm *VM) ParkAllProcesses(p *firefly.Proc) {
	for _, in := range vm.Interps {
		if in.proc == object.Nil {
			continue
		}
		in.flushRegisters()
		vm.H.Store(p, in.proc, PrSuspendedContext, in.ctx)
		vm.H.StoreNoCheck(in.proc, PrState, object.FromInt(StateReady))
	}
}

// SnapshotFunc is installed by the image layer to write a snapshot; the
// snapshot primitive calls it.
type SnapshotFunc func(vm *VM, path string) error

// SetSnapshotFunc installs the snapshot writer used by primitive 139.
func (vm *VM) SetSnapshotFunc(f SnapshotFunc) { vm.snapshotFunc = f }

// primSnapshot implements `Smalltalk snapshotTo: 'path'` (primitive
// 139), following the paper's protocol: the result is pushed first (so
// both the continuing image and the resumed image see it), every
// Process is parked, the scheduler's activeProcess slot is filled with
// the snapshotting Process, the image is written, and the slot is
// emptied again.
func (in *Interp) primSnapshot(nargs int, recv object.OOP) bool {
	vm := in.vm
	pathO := in.stackAt(0)
	if vm.snapshotFunc == nil || !in.isStringy(pathO) {
		return false
	}
	path := vm.GoString(pathO)
	in.primReturn(nargs, recv)

	vm.ParkAllProcesses(in.p)
	vm.jitDeoptAll(jit.DeoptSnapshot)
	// "The only requirement is to fill in the activeProcess slot
	// before taking a snapshot and to empty it afterwards." (§3.3)
	vm.H.Store(in.p, vm.Specials.Scheduler, SchedActive, in.proc)
	err := vm.snapshotFunc(vm, path)
	vm.H.StoreNoCheck(vm.Specials.Scheduler, SchedActive, object.Nil)
	if err != nil {
		vm.hostMu.Lock()
		vm.errors = append(vm.errors, "snapshot: "+err.Error())
		vm.hostMu.Unlock()
		// The result is already pushed; report the failure via the
		// transcript rather than unwinding the stack.
		vm.Disp.TranscriptShow(in.p, "snapshot failed: "+err.Error()+"\n")
		return true
	}
	// Continue running: our own Process was parked; resume it.
	vm.H.StoreNoCheck(in.proc, PrState, object.FromInt(StateRunning))
	return true
}
