package interp

import (
	"fmt"
	"reflect"
	"testing"

	"mst/internal/firefly"
	"mst/internal/heap"
	"mst/internal/object"
)

// planResidents returns the occupied slots of in's plan table, after
// checking that planUsed lists exactly those, once each — a slot missing
// from the list would survive every flush.
func planResidents(t *testing.T, in *Interp) []int {
	t.Helper()
	listed := map[int]bool{}
	for _, i := range in.planUsed {
		if listed[int(i)] {
			t.Errorf("slot %d is listed twice in planUsed", i)
		}
		listed[int(i)] = true
	}
	var occupied []int
	for i := range in.plans {
		// A flushed slot keeps its code buffer (plain bytes, refilled by
		// the next plan in the slot) and nothing else.
		p := in.plans[i]
		p.code = nil
		if reflect.ValueOf(p).IsZero() {
			continue
		}
		occupied = append(occupied, i)
		if !listed[i] {
			t.Errorf("slot %d is occupied but not listed in planUsed", i)
		}
	}
	if len(occupied) != len(listed) {
		t.Errorf("planUsed lists %d slots, %d are occupied", len(listed), len(occupied))
	}
	return occupied
}

// TestPlanCollisionsAndFlushes aims at the three things that can go wrong
// with the plan table: a colliding plan (two methods sharing a slot must
// evict each other and still run as themselves), a stale plan (the next
// send after a flush re-derives), and a plan that outlives its flush —
// the table must hold nothing, so that no icMethod or fused body stays
// reachable from it, after a scavenge, a method install and a snapshot.
// A scavenge and an install re-plan the method the interpreter is
// executing, or ran last (refreshCode); that one fresh plan is all the
// table may hold then.
func TestPlanCollisionsAndFlushes(t *testing.T) {
	for _, c := range []struct {
		name string
		ic   ICPolicy
		jit  bool
	}{
		{"interp", ICOff, false},
		{"pic+jit", ICPoly, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			vm := icTestVM(t, 1, c.ic, func(cfg *Config, hcfg *heap.Config) {
				cfg.JIT = c.jit
				hcfg.TenureAge = 1
			})
			in := vm.Interps[0]
			h := vm.H

			empty := func(when string) {
				t.Helper()
				if r := planResidents(t, in); len(r) != 0 {
					t.Errorf("%s: slots %v are occupied", when, r)
				}
			}
			// refreshed: the table holds at most the plan refreshCode derives
			// after a flush — the executing method's, fresh, uncounted, bound
			// to the method's current inline-cache state.
			refreshed := func(when string) {
				t.Helper()
				for _, i := range planResidents(t, in) {
					p := &in.plans[i]
					if p.method != in.method || p.count != 0 || p.icm != in.ic[in.method] ||
						(p.icm != nil && p.jc != p.icm.jc) {
						t.Errorf("%s: slot %d holds a plan (method %v, count %d) that is not the executing method's fresh one",
							when, i, p.method, p.count)
					}
				}
			}
			// Registered after the VM's own hooks, so they see the table right
			// after the flush and right after refreshCode — at every scavenge
			// of the test, mid-method ones included.
			h.OnPreScavenge(func() { empty("after the pre-scavenge flush") })
			midMethod := 0
			h.OnPostScavenge(func() {
				if in.ctx != object.Nil {
					midMethod++
				}
				refreshed("after a scavenge")
			})
			do := func(f func(p *firefly.Proc)) {
				t.Helper()
				if err := vm.Do(f); err != nil {
					t.Fatal(err)
				}
			}

			// Tenured together the probes sit ten words apart and a slot
			// covers eight, so the indices wrap past planTabSize*8/10.
			const probes = 240
			cls := vm.CreateClass(in.p, "PlanProbe", vm.Specials.Object, nil, KindFixed, "Tests")
			for k := 0; k < probes; k++ {
				if _, err := vm.CompileAndInstall(in.p, cls, fmt.Sprintf("m%d ^%d", k, k+1), "tests"); err != nil {
					t.Fatal(err)
				}
			}
			for _, src := range []string{"snapshotTo: path <primitive: 139> ^nil", "scavenge <primitive: 91> ^nil"} {
				if _, err := vm.CompileAndInstall(in.p, cls, src, "tests"); err != nil {
					t.Fatal(err)
				}
			}
			// Tenure the methods so their oops (and table indices) hold still.
			for i := 0; i < 2; i++ {
				do(func(p *firefly.Proc) { h.Scavenge(p) })
			}
			cls = vm.SysDictAt("PlanProbe")
			methods := make([]object.OOP, probes)
			vals := h.Fetch(h.Fetch(cls, ClsMethodDict), MDValues)
			for i := 0; i < h.FieldCount(vals); i++ {
				m := h.Fetch(vals, i)
				var k int
				if m == object.Nil {
					continue
				}
				if _, err := fmt.Sscanf(vm.SymbolName(h.Fetch(m, CMSelector)), "m%d", &k); err == nil {
					if h.InNewSpace(m) {
						t.Fatalf("m%d is still in new space", k)
					}
					methods[k] = m
				}
			}
			a, b, third := -1, -1, -1
			for i := 0; i < probes && a < 0; i++ {
				for j := i + 1; j < probes; j++ {
					if planIndex(methods[i]) == planIndex(methods[j]) {
						a, b = i, j
						break
					}
				}
			}
			for k := 0; k < probes && a >= 0; k++ {
				if planIndex(methods[k]) != planIndex(methods[a]) {
					third = k
					break
				}
			}
			if third < 0 {
				t.Fatalf("no two of %d methods share one of %d slots", probes, planTabSize)
			}
			// fresh gets hot only after the scavenge: the compile that shows
			// the tier still compiles where third's body is resurrected.
			fresh := -1
			for k := 0; k < probes && fresh < 0; k++ {
				if i := planIndex(methods[k]); i != planIndex(methods[a]) && i != planIndex(methods[third]) {
					fresh = k
				}
			}
			heat := func(when string) {
				t.Helper()
				if got := evalInt(t, vm, fmt.Sprintf("PlanProbe new m%d; m%d", fresh, fresh)); got != int64(fresh+1) {
					t.Errorf("%s: m%d = %d, want %d", when, fresh, got, fresh+1)
				}
			}

			// The collision, directly: one slot, each method derived as itself,
			// the slot listed once however often it changes hands.
			pa := in.planFor(methods[a])
			if pa.method != methods[a] {
				t.Fatalf("planFor(m%d) derived %v", a, pa.method)
			}
			pb := in.planFor(methods[b])
			if pb != pa || pb.method != methods[b] ||
				string(pb.code) != string(h.Bytes(h.Fetch(methods[b], CMBytes))) {
				t.Fatalf("planFor(m%d) did not evict m%d from their shared slot and derive itself", b, a)
			}
			in.planFor(methods[a])
			planResidents(t, in)

			const rounds = 30
			drive := fmt.Sprintf(`| p s |
				p := PlanProbe new. s := 0.
				1 to: %d do: [:n | s := s + p m%d + p m%d + p m%d].
				s`, rounds, a, b, third)
			want := int64(rounds * (a + 1 + b + 1 + third + 1))
			check := func(when string) {
				t.Helper()
				if got := evalInt(t, vm, drive); got != want {
					t.Errorf("%s: alternating sends to m%d, m%d (one slot) and m%d = %d, want %d",
						when, a, b, third, got, want)
				}
			}
			check("cold")

			compiles := vm.Stats().JITCompiles
			do(func(p *firefly.Proc) { h.Scavenge(p) })
			check("after a scavenge")
			heat("after a scavenge")
			if n := vm.Stats().JITCompiles - compiles; c.jit && n != 1 {
				// The probes' fused bodies hang off their icMethods and come
				// back with the re-derived plans; only m<fresh>, never run
				// before, compiles. (A doIt never does.)
				t.Errorf("%d methods compiled after a scavenge, want 1 (m%d)", n, fresh)
			}

			compiles = vm.Stats().JITCompiles
			do(func(p *firefly.Proc) {
				if _, err := vm.CompileAndInstall(p, vm.SysDictAt("PlanProbe"), "extra ^0", "tests"); err != nil {
					t.Error(err)
				}
			})
			refreshed("after a method install")
			check("after a method install")
			heat("after a method install")
			if n := vm.Stats().JITCompiles - compiles; c.jit && n != 2 {
				// The install dropped every fused body with the inline caches.
				// (The colliding pair never gets hot: each load of one evicts
				// the other's plan and its count with it.)
				t.Errorf("%d methods compiled after an install, want 2 (m%d and m%d, again)", n, third, fresh)
			}

			snapshots := 0
			vm.SetSnapshotFunc(func(vm *VM, path string) error {
				snapshots++
				empty("at the snapshot")
				for _, icm := range in.ic {
					if icm.jc != nil {
						t.Error("a fused body is still reachable at the snapshot")
					}
				}
				return nil
			})
			loop := fmt.Sprintf("1 to: %d do: [:n | s := s + p m%d + p m%d + p m%d].", rounds, a, b, third)
			running := "| p s | p := PlanProbe new. s := 0. " +
				loop + " p scavenge. " + loop + " p snapshotTo: 'nowhere'. " + loop + " s"
			if got := evalInt(t, vm, running); got != 3*want {
				t.Errorf("across a mid-method scavenge and a snapshot: %d, want %d", got, 3*want)
			}
			if snapshots != 1 || midMethod == 0 {
				t.Errorf("%d snapshots and %d mid-method scavenges taken, want 1 and at least 1", snapshots, midMethod)
			}
		})
	}
}
