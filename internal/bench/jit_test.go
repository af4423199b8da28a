package bench

import (
	"bytes"
	"strings"
	"testing"
)

// The ablation's headline claim: fusion clears the gate floor on the
// two kernels built for it, every workload actually exercises the
// tier (compiles and compiled-bytecode share), and the interpreter
// control system never touches jit machinery. The floor is the one
// machine-bound check here and host noise only ever slows a run, so it
// fails only when three consecutive runs all miss it.
func TestJITAblationSpeedupAndCoverage(t *testing.T) {
	r, err := RunJITAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(jitWorkloads) {
		t.Fatalf("rows = %d, want %d", len(r.Rows), len(jitWorkloads))
	}
	for i, row := range r.Rows {
		if row.Workload != jitWorkloads[i] {
			t.Fatalf("row %d measures %q, want %q", i, row.Workload, jitWorkloads[i])
		}
		if row.VirtualMS == 0 {
			t.Errorf("%s: no virtual time measured", row.Workload)
		}
		if row.Compiles == 0 {
			t.Errorf("%s: tier compiled nothing", row.Workload)
		}
		if row.JITShare <= 0 {
			t.Errorf("%s: no bytecodes ran compiled", row.Workload)
		}
	}
	best := r.FusionSpeedup()
	for try := 1; try < 3 && best < JITSpeedupFloor; try++ {
		again, err := RunJITAblation()
		if err != nil {
			t.Fatal(err)
		}
		best = max(best, again.FusionSpeedup())
	}
	if best < JITSpeedupFloor {
		t.Errorf("fusion speedup %.2fx under the %.2fx floor in three consecutive runs", best, JITSpeedupFloor)
	}
	out := r.Format()
	for _, col := range []string{"workload", "speedup", "compiles", "jit share", "fusion speedup", "median speedup"} {
		if !strings.Contains(out, col) {
			t.Errorf("format output missing %q:\n%s", col, out)
		}
	}
}

// The ablation's virtual columns are deterministic: two runs agree on
// every virtual time, compile count, deopt count, and bytecode share —
// so the gate may compare them exactly — and the fingerprints of the
// two runs (host fields zeroed) are byte-identical.
func TestJITAblationFingerprintByteDiff(t *testing.T) {
	a, err := RunJITAblation()
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunJITAblation()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if ra.VirtualMS != rb.VirtualMS || ra.Compiles != rb.Compiles ||
			ra.Deopts != rb.Deopts || ra.JITShare != rb.JITShare {
			t.Errorf("%s: virtual columns diverge between runs:\n%+v\n%+v",
				ra.Workload, ra, rb)
		}
	}
	var fa, fb bytes.Buffer
	if err := Fingerprint(&JSONReport{JIT: a}, &fa); err != nil {
		t.Fatal(err)
	}
	if err := Fingerprint(&JSONReport{JIT: b}, &fb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fa.Bytes(), fb.Bytes()) {
		t.Errorf("fingerprints differ byte-for-byte:\n%s\nvs\n%s", fa.String(), fb.String())
	}
	// The fingerprint really did zero the host columns: perturbing a
	// host field must not change it.
	a.Rows[0].InterpNS += 12345
	a.MedianSpeedup += 9.9
	var fc bytes.Buffer
	if err := Fingerprint(&JSONReport{JIT: a}, &fc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fa.Bytes(), fc.Bytes()) {
		t.Error("fingerprint moved when only host-time fields changed")
	}
}
