package bench

import (
	"reflect"
	"strings"
	"testing"
)

// The ablation's headline claim: with the cooperative scavenger on,
// total scavenge virtual time strictly decreases from 1 to 4 simulated
// processors (and keeps decreasing at 8 on this workload), while the
// serial scavenger's time is processor-count-independent — and on one
// processor the two are the same scavenger.
func TestParScavengeAblationScales(t *testing.T) {
	r, err := RunParScavengeAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(parScavProcCounts) {
		t.Fatalf("rows = %d, want %d", len(r.Rows), len(parScavProcCounts))
	}
	for i, row := range r.Rows {
		if row.Procs != parScavProcCounts[i] {
			t.Fatalf("row %d measures procs=%d, want %d", i, row.Procs, parScavProcCounts[i])
		}
		if row.Scavenges == 0 || row.CopiedWords == 0 {
			t.Fatalf("procs=%d: no collection work measured: %+v", row.Procs, row)
		}
		if row.SerialTicks != r.Rows[0].SerialTicks {
			t.Errorf("serial scavenge time varies with processor count: %d at procs=%d vs %d at procs=1",
				row.SerialTicks, row.Procs, r.Rows[0].SerialTicks)
		}
		if i == 0 && row.ParallelTicks != row.SerialTicks {
			t.Errorf("procs=1: parallel scavenger %d ticks, serial %d; one worker is the serial scavenger",
				row.ParallelTicks, row.SerialTicks)
		}
		if i > 0 {
			prev := r.Rows[i-1]
			if row.ParallelTicks >= prev.ParallelTicks {
				t.Errorf("parallel scavenge time not strictly decreasing: %d ticks at procs=%d, %d at procs=%d",
					prev.ParallelTicks, prev.Procs, row.ParallelTicks, row.Procs)
			}
			if row.Steals == 0 {
				t.Errorf("procs=%d: no steals; the deques never interacted", row.Procs)
			}
		}
	}
}

// The ablation is virtual-time deterministic: two runs produce
// identical rows (speedup included), so the gate may compare them
// exactly.
func TestParScavengeAblationDeterministic(t *testing.T) {
	a, err := RunParScavengeAblation()
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunParScavengeAblation()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("ablation not deterministic:\n%+v\n%+v", a, b)
	}
	out := a.Format()
	if !strings.Contains(out, "procs") || !strings.Contains(out, "speedup") {
		t.Errorf("format output missing columns:\n%s", out)
	}
}
