package image

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"mst/internal/firefly"
	"mst/internal/heap"
	"mst/internal/interp"
)

// snapshotMagic identifies MS image files.
const snapshotMagic = "MS-IMAGE-1"

// snapshotFile is the on-disk image: a State behind the magic. Its type
// and field names are part of the gob encoding, so they stay as they are.
type snapshotFile struct {
	Magic  string
	Heap   *heap.SnapshotState
	Tables *interp.VMTables
	VMCfg  interp.Config
}

// Encode writes s to w in the format DecodeState reads.
func (s *State) Encode(w io.Writer) error {
	return gob.NewEncoder(w).Encode(&snapshotFile{snapshotMagic, s.Heap, s.Tables, s.VMCfg})
}

// DecodeState reads an image written by Encode. It only decodes:
// CloneVM materializes the result.
func DecodeState(r io.Reader) (*State, error) {
	var f snapshotFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("image: corrupt snapshot: %w", err)
	}
	if f.Magic != snapshotMagic {
		return nil, fmt.Errorf("image: not an MS image (magic %q)", f.Magic)
	}
	return &State{f.Heap, f.Tables, f.VMCfg}, nil
}

// State is an image snapshot held as live structures: the heap, the VM
// tables, and the configurations the image runs under. One immutable
// State can seed any number of clones (the multi-tenant image server
// captures its base image once); the copy happens at CloneVM.
type State struct {
	Heap   *heap.SnapshotState
	Tables *interp.VMTables
	VMCfg  interp.Config
}

// CaptureState snapshots a quiesced image in memory. Callers must have
// parked every Process first (core.System.Checkpoint does); the
// captured slices are private copies, so the running image may continue
// mutating afterwards. An image records no host mode: whatever restores
// it starts deterministic.
func CaptureState(vm *interp.VM) *State {
	s := &State{
		Heap:   vm.H.SnapshotState(),
		Tables: vm.SnapshotTables(),
		VMCfg:  vm.Cfg,
	}
	s.Heap.Config.Parallel = false
	s.VMCfg.Parallel = false
	return s
}

// CloneVM is the one restore: it materializes an independent VM from a
// State on a fresh machine. The heap and table restores copy every
// word, so clones of one State share nothing mutable — one clone's
// stores and collections cannot reach a sibling. Processes on the
// image's ready queue resume when the machine runs.
func CloneVM(m *firefly.Machine, s *State) (*interp.VM, error) {
	h, err := heap.RestoreHeap(m, s.Heap)
	if err != nil {
		return nil, err
	}
	vm, err := interp.RestoreVM(m, h, s.VMCfg, s.Tables)
	if err != nil {
		return nil, err
	}
	installSnapshotPrim(vm)
	return vm, nil
}

// installSnapshotPrim hooks primitive 139 up to a file-writing snapshot.
func installSnapshotPrim(vm *interp.VM) {
	vm.SetSnapshotFunc(func(vm *interp.VM, path string) error {
		out, err := os.Create(path)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := CaptureState(vm).Encode(out); err != nil {
			return err
		}
		return out.Close()
	})
}
