package main

import (
	"time"
)

// The calibration unit (CU). Every host timing the benchmark reports is
// divided by the cost of a fixed pure-Go kernel measured immediately
// before and after the timed operation, on the same goroutine. On a
// shared box raw milliseconds drift by tens of percent between
// back-to-back runs of one binary; a kernel that slows down with the
// same neighbours cancels most of that (README, "Why calibration
// units").
//
// The kernel is an xorshift-indexed walk over a 64 Ki-word table whose
// values pick one of five arms of a switch: data-dependent loads and
// poorly predicted branches, the same mix a bytecode interpreter lives
// on. It allocates nothing and its work is identical on every call (the
// table is read-only; the one store goes to a small scratch ring).
//
// One kernel run is short (well under a millisecond), and a single run
// that a neighbour happens to hit would skew every operation it
// brackets. So the kernel runs calibRuns times at every bracket point
// and the median of those counts.
const (
	calibWords = 1 << 16
	calibIters = 40_000
	calibRuns  = 3
)

type calibrator struct {
	table   [calibWords]uint64
	scratch [256]uint64
	sink    uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for i := range c.table {
		c.table[i] = uint64(i+1) * 0x9E3779B97F4A7C15
	}
	return c
}

// run executes the kernel once and returns its wall time.
func (c *calibrator) run() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		idx := x & (calibWords - 1)
		v := c.table[idx]
		switch v % 5 {
		case 0:
			acc += v
		case 1:
			acc ^= v >> 3
		case 2:
			acc -= v
			c.scratch[idx&255] = acc
		case 3:
			acc = acc<<1 | acc>>63
		default:
			acc += idx
		}
	}
	c.sink += acc
	return time.Since(t0)
}

// meter times operations in CU. The kernel run that closes one
// operation opens the next, so n back-to-back operations cost n+1
// kernel runs.
type meter struct {
	cal    *calibrator
	tr     *tracer
	before time.Duration // kernel time bracketing the next op from the left
	calibs []float64     // the kernel time at every bracket point, ns
}

func newMeter(tr *tracer) *meter {
	m := &meter{cal: newCalibrator(), tr: tr}
	// The first kernel run faults the table in; discard it.
	m.cal.run()
	return m
}

// calibrate takes the kernel's time (the median of calibRuns runs) and
// makes it the left bracket of the next operation. Call it after
// anything untimed that may have disturbed the caches or let the
// machine change state.
func (m *meter) calibrate() {
	sp := m.tr.begin("calib")
	var runs [calibRuns]time.Duration
	for i := range runs {
		runs[i] = m.cal.run()
	}
	m.tr.end(sp)
	// Median of three by hand: this is the hot path of the harness.
	a, b, c := runs[0], runs[1], runs[2]
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	m.before = max(a, b)
	m.calibs = append(m.calibs, float64(m.before))
}

// op times f between two kernel runs and returns its cost in
// nanoseconds and in CU. name labels the span in a traced run.
func (m *meter) op(name string, f func()) (ns, cu float64) {
	sp := m.tr.begin(name)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	m.tr.end(sp)
	left := m.before
	m.calibrate()
	ns = float64(d)
	return ns, ns / (float64(left+m.before) / 2)
}

// unit is the most recent kernel time in nanoseconds: the denominator
// for operations too short to bracket one by one (requests).
func (m *meter) unit() float64 { return float64(m.before) }
