package heap

import (
	"fmt"

	"mst/internal/firefly"
	"mst/internal/object"
)

// SnapshotState is the serializable state of an object memory: the
// geometry, the used portion of every space, and the entry table.
// Object addresses are absolute, so a snapshot restores only into a
// heap with identical geometry.
type SnapshotState struct {
	Config Config

	OldUsed  []uint64
	PastUsed []uint64
	EdenUsed []uint64
	Past     int

	Remembered []object.OOP
	HashSeed   uint32
}

// TenureAll empties new space: TenureAge+1 ordinary scavenges on p take
// every live young object past its tenure age, so on return eden and
// the past-survivor space hold nothing. A checkpoint calls it so that
// its clones' scavenges copy only their own survivors. The caller must
// have quiesced the mutators; the world stays stopped across the whole
// series.
func (h *Heap) TenureAll(p *firefly.Proc) {
	for !h.m.StopTheWorld(p) {
		// Another processor collected while we waited; its scavenge
		// does not replace ours.
	}
	defer h.m.ResumeTheWorld(p)
	for i := 0; i <= h.cfg.TenureAge; i++ {
		h.scavenge(p)
	}
	if past := &h.surv[h.past]; h.eden.next != h.eden.base || past.next != past.base {
		panic(fmt.Sprintf("heap: new space not empty after tenuring: eden %d words, past survivor %d words",
			h.eden.next-h.eden.base, past.next-past.base))
	}
}

// SnapshotState captures the heap for serialization. The caller must
// have quiesced the mutators (all interpreter registers flushed into
// heap objects).
//
//msvet:atomic-excluded wholesale read of a caller-quiesced world; no mutator runs while the image is serialized
func (h *Heap) SnapshotState() *SnapshotState {
	past := &h.surv[h.past]
	s := &SnapshotState{
		Config:     h.cfg,
		OldUsed:    append([]uint64(nil), h.mem[:h.old.next]...),
		PastUsed:   append([]uint64(nil), h.mem[past.base:past.next]...),
		EdenUsed:   append([]uint64(nil), h.mem[h.eden.base:h.eden.next]...),
		Past:       h.past,
		Remembered: append([]object.OOP(nil), h.remembered...),
		HashSeed:   h.hashSeed,
	}
	return s
}

// RestoreHeap builds a heap on machine m from a snapshot. The returned
// heap has the snapshot's geometry, contents, and entry table; roots
// must be re-registered by the caller (the VM layer).
//
//msvet:heap-writer wholesale image restore into a heap no processor has seen yet; the store check has nothing to track until the VM layer re-registers roots
//msvet:atomic-excluded mutators do not exist yet when the image is copied in
func RestoreHeap(m *firefly.Machine, s *SnapshotState) (*Heap, error) {
	h := New(m, s.Config)
	if len(s.OldUsed) > int(h.old.limit) {
		return nil, fmt.Errorf("heap: snapshot old space (%d words) exceeds geometry", len(s.OldUsed))
	}
	copy(h.mem, s.OldUsed)
	h.old.next = uint64(len(s.OldUsed))
	if h.old.next < h.old.base {
		h.old.next = h.old.base
	}
	h.past = s.Past
	past := &h.surv[h.past]
	if len(s.PastUsed) > int(past.limit-past.base) {
		return nil, fmt.Errorf("heap: snapshot survivor space too large")
	}
	copy(h.mem[past.base:], s.PastUsed)
	past.next = past.base + uint64(len(s.PastUsed))
	if len(s.EdenUsed) > int(h.eden.limit-h.eden.base) {
		return nil, fmt.Errorf("heap: snapshot eden too large")
	}
	copy(h.mem[h.eden.base:], s.EdenUsed)
	h.eden.next = h.eden.base + uint64(len(s.EdenUsed))
	h.remembered = append([]object.OOP(nil), s.Remembered...)
	h.hashSeed = s.HashSeed
	return h, nil
}
