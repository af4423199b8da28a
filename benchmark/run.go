package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// options configure one run of one workload.
type options struct {
	seed    uint64
	seconds float64 // length of the measured window
	passes  int     // > 0: run exactly this many passes and ignore seconds
	setups  int     // fresh set-ups timed for setup_s
	warmup  int     // untimed passes before the window
	trace   bool    // the traced run: spans on, per-layer metrics out
	probes  bool    // traced run only: also run the direct layer probes
	scale   float64 // probe repetitions relative to the full-size probe run
}

// result is everything one run of one workload produced.
type result struct {
	Workload    string   `json:"workload"`
	Seed        uint64   `json:"seed"`
	Traced      bool     `json:"traced"`
	Correct     bool     `json:"correct"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Fails       []string `json:"fails,omitempty"` // the first few, by op
	Fingerprint string   `json:"virt_fingerprint"`
	Passes      int      `json:"passes"`
	Requests    int      `json:"requests"`
	Metrics     metrics  `json:"metrics"`
	OpCU        metrics  `json:"op_cu_p50,omitempty"` // median CU of each named op
	Spans       []span   `json:"spans,omitempty"`
}

// maxFailsKept bounds the failure lines carried in a result.
const maxFailsKept = 20

func (res *result) absorb(r *passRec) {
	res.Attempted += r.attempted
	res.Failed += len(r.fails)
	for _, f := range r.fails {
		if len(res.Fails) < maxFailsKept {
			res.Fails = append(res.Fails, f)
		}
	}
}

// nominalKernelSeconds turns CU back into seconds for setup_s, which
// the benchmark contract wants in seconds: the time on a machine whose
// calibration kernel takes 0.45 ms (what it takes on the box this was
// written on when nothing else runs). A set-up is 5-12 ms of raw time,
// and raw time here steps by 27 % whenever the hypervisor parks or
// unparks the VM: reported raw, the median of ten runs moved by 28 %
// between two sets an hour apart on one binary.
const nominalKernelSeconds = 0.00045

// runWorkload sets w up, warms it, measures it for the window, and
// derives its metrics: the end-to-end ones from an untraced run, the
// per-layer ones from a traced run.
func runWorkload(w *workload, o options) (*result, error) {
	// One Go scheduler thread for everything timed. The program's
	// deterministic mode has exactly one runnable goroutine at a time
	// and hands a baton between goroutines; with a second P the Go
	// scheduler sometimes wakes the next goroutine on the other thread
	// and sometimes does not, which on macro_busy5 moved the pass cost
	// between 1500 and 2300 CU from one run to the next (and costs 2x
	// against one P: see firefly.ms5_mp_over_p1, which prices exactly
	// that from inside the probes).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := &result{Workload: w.name, Seed: o.seed, Traced: o.trace, Metrics: metrics{}}
	var tr *tracer
	if o.trace {
		tr = newTracer(w.name)
	}
	m := newMeter(tr)
	runSpan := tr.begin("run")
	wlSpan := tr.begin("workload")

	// Set-up, several times over: boot + file-in + background spawn
	// (+ BootCheckpoint for serve), warm-up excluded. Each earlier
	// system is shut down and collected first, so the extra set-ups do
	// not pile up in peak RSS and every timed set-up starts from the
	// same Go heap state instead of inheriting a collection in flight.
	var setupS []float64
	var inst instance
	for i := 0; i < o.setups; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC()
		m.calibrate()
		var err error
		_, cu := m.op("setup", func() { inst, err = w.setup(o.seed, tr) })
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, cu*nominalKernelSeconds)
	}
	defer inst.close()

	sp := tr.begin("warmup")
	for i := 0; i < o.warmup; i++ {
		var r passRec
		m.calibrate()
		inst.pass(m, &r)
		inst.requests(m, &r)
		res.absorb(&r)
	}
	tr.end(sp)
	m.calibs = m.calibs[:0]

	// The window. Exact counters and the fingerprint cover the first
	// `exact` passes, so they do not depend on how many more the
	// machine fits into the time.
	exact := w.exactPasses
	if o.passes > 0 {
		exact = min(exact, o.passes)
	}
	var (
		passCU, passNs   []float64
		fineCU, coarseCU []float64 // traced run: passes with and without fine spans
		reqMCU           []float64
		reqNsRounds      []float64
		primeNsRounds    []float64
		opCU             = map[string][]float64{}
		opNs             = map[string][]float64{}
		exactCtr         counters
		exactCU          float64
		haveCtr          bool
		mallocs, allocB  uint64
		gcCycles         uint32
		ms0, ms1         runtime.MemStats
		fp               = newFingerprint()
		start            = time.Now()
		deadline         = start.Add(time.Duration(o.seconds * float64(time.Second)))
		windowSpan       = tr.begin("window")
		before, after    counters
	)
	for p := 0; ; p++ {
		if o.passes > 0 {
			if p >= o.passes {
				break
			}
		} else if p >= exact && !time.Now().Before(deadline) {
			break
		}
		// In the traced run every other pass records only its own
		// span: the two halves price the fine-grained spans.
		fine := p%2 == 0
		var passSpan int
		if fine {
			passSpan = tr.begin("pass")
		} else {
			passSpan = tr.begin("pass.coarse")
			tr.pause()
		}
		var r passRec
		counting := p < exact
		if counting {
			before, haveCtr = inst.counters()
			runtime.ReadMemStats(&ms0)
		}
		m.calibrate()
		inst.pass(m, &r)
		if counting {
			after, _ = inst.counters()
			runtime.ReadMemStats(&ms1)
			d := after.minus(before)
			for i := range d {
				exactCtr[i] += d[i]
			}
			exactCU += r.cu
			mallocs += ms1.Mallocs - ms0.Mallocs
			allocB += ms1.TotalAlloc - ms0.TotalAlloc
			gcCycles += ms1.NumGC - ms0.NumGC
			fp.add("pass", r.virt...)
			fp.add("counters", int64(d[cBytecodes]), int64(d[cSends]), int64(d[cScavenges]),
				int64(d[cFullCollections]), int64(d[cSwitches]))
		}
		inst.requests(m, &r)
		tr.resume()
		tr.end(passSpan)

		res.absorb(&r)
		passCU = append(passCU, r.cu)
		passNs = append(passNs, r.ns)
		if fine {
			fineCU = append(fineCU, r.cu)
		} else {
			coarseCU = append(coarseCU, r.cu)
		}
		reqMCU = append(reqMCU, r.reqMCU...)
		reqNsRounds = append(reqNsRounds, r.reqNs)
		primeNsRounds = append(primeNsRounds, r.primeNs)
		for _, op := range r.ops {
			opCU[op.name] = append(opCU[op.name], op.cu)
			opNs[op.name] = append(opNs[op.name], op.ns)
		}
	}
	tr.end(windowSpan)
	window := time.Since(start)

	res.Passes = len(passCU)
	res.Requests = len(reqMCU)
	res.Fingerprint = fp.sum()
	res.Correct = res.Failed == 0
	res.OpCU = metrics{}
	for name, v := range opCU {
		res.OpCU[name] = metricValue{Value: median(v), Unit: "CU"}
	}

	// The end-to-end metrics. Machine noise on a shared box is
	// one-sided: a neighbour makes passes dearer, never cheaper, and it
	// comes in bursts. So the pass cost is the first quartile over
	// passes, not the median (measured: a third of the median's
	// run-to-run spread), and the request percentiles are taken per
	// chunk of consecutive requests and the median chunk counts, so a
	// burst spoils the chunks it hits instead of owning the pooled tail.
	mt := res.Metrics
	mt.set("setup_s", median(setupS))
	mt.set("pass_cu_p25", quantile(passCU, 0.25))
	mt.set("req_mcu_p50", chunkedQuantile(reqMCU, 0.50))
	mt.set("req_mcu_p99", chunkedQuantile(reqMCU, 0.99))
	mt.set("peak_rss_mb", peakRSSMB())
	mt.set("harness.calib_ms_p50", median(m.calibs)/1e6)
	mt.set("harness.calib_ms_min", slices.Min(m.calibs)/1e6)
	mt.set("harness.pass_ms_p50", median(passNs)/1e6)
	mt.set("harness.pass_ms_min", slices.Min(passNs)/1e6)
	mt.set("harness.pass_cu_p50", median(passCU))
	mt.set("harness.pass_cu_p95", quantile(passCU, 0.95))
	mt.set("harness.window_s", window.Seconds())
	mt.set("harness.samples", float64(len(passCU)))
	mt.set("harness.fail_share", share(float64(res.Failed), float64(res.Attempted)))
	if !o.trace {
		tr.end(wlSpan)
		tr.end(runSpan)
		return res, nil
	}

	n := float64(exact)
	c := exactCtr
	f := func(i ctr) float64 { return float64(c[i]) }
	if haveCtr {
		procTime := f(cProcBusy) + f(cProcSpin) + f(cProcStall) + f(cProcIdle)
		mt.set("firefly.switches_per_pass", f(cSwitches)/n)
		mt.set("firefly.virt_ticks_per_pass", f(cVirtTicks)/n)
		mt.set("firefly.spin_share", share(f(cProcSpin), procTime))
		mt.set("firefly.idle_share", share(f(cProcIdle), procTime))
		mt.set("firefly.lock_acquires_per_pass", f(cLockAcquires)/n)
		mt.set("firefly.lock_contended_share", share(f(cLockContended), f(cLockAcquires)))
		mt.set("interp.bytecodes_per_pass", f(cBytecodes)/n)
		mt.set("interp.sends_per_pass", f(cSends)/n)
		mt.set("interp.prims_per_pass", f(cPrims)/n)
		mt.set("interp.cache_hit_share", share(f(cCacheHits), f(cCacheHits)+f(cCacheMisses)))
		mt.set("interp.ic_hit_share", share(f(cICHits), f(cICHits)+f(cICMisses)))
		mt.set("interp.ctx_recycle_share", share(f(cCtxRecycled), f(cCtxAlloc)+f(cCtxRecycled)))
		mt.set("interp.process_switches_per_pass", f(cProcessSwitches)/n)
		mt.set("interp.kbc_per_cu", share(f(cBytecodes)/1000, exactCU))
		mt.set("jit.compiled_bc_share", share(f(cJITBytecodes), f(cBytecodes)))
		// Compiles and deopts are totals since boot: nearly all of
		// them happen in the warm-up, before the window opens.
		mt.set("jit.compiles", float64(after[cJITCompiles]))
		mt.set("jit.deopts", float64(after[cJITDeopts]))
		mt.set("heap.allocs_per_pass", f(cAllocs)/n)
		mt.set("heap.alloc_words_per_pass", f(cAllocWords)/n)
		mt.set("heap.scavenges_per_pass", f(cScavenges)/n)
		mt.set("heap.copied_words_per_pass", f(cCopiedWords)/n)
		mt.set("heap.tenured_words_per_pass", f(cTenuredWords)/n)
		mt.set("heap.store_checks_per_pass", f(cStoreChecks)/n)
		mt.set("heap.full_collections_per_pass", f(cFullCollections)/n)
		mt.set("heap.scavenge_vticks_per_pass", f(cScavengeTicks)/n)
		mt.set("heap.fullgc_vticks_per_pass", f(cFullGCTicks)/n)
	}
	if s, ok := inst.(*serveInstance); ok && s.last != nil {
		rep := s.last
		mt.set("serve.offered", float64(rep.Offered))
		mt.set("serve.completed", float64(rep.Completed))
		mt.set("serve.rejected", float64(rep.Rejected))
		mt.set("serve.virt_latency_p50_ticks", float64(rep.Latency.P50))
		mt.set("serve.virt_latency_p99_ticks", float64(rep.Latency.P99))
		mt.set("serve.virt_makespan_ticks", float64(rep.MakespanTicks))
		// What Run costs beyond the evaluations themselves: its time
		// minus the clones and minus the same requests' one-by-one
		// latencies, per request.
		front := median(opNs["serve.Run"]) - median(primeNsRounds) - median(reqNsRounds)
		mt.set("serve.front_us_per_req", front/float64(rep.Offered)/1e3)
		mt.set("serve.req_per_cu", share(float64(rep.Offered), quantile(passCU, 0.25)))
	}
	mt.set("gohost.mallocs_per_pass", float64(mallocs)/n)
	mt.set("gohost.alloc_kb_per_pass", float64(allocB)/1024/n)
	mt.set("gohost.gc_cycles_per_pass", float64(gcCycles)/n)
	mt.set("gohost.goroutines", float64(runtime.NumGoroutine()))
	if len(coarseCU) > 0 {
		mt.set("harness.trace_overhead_share", quantile(fineCU, 0.25)/quantile(coarseCU, 0.25)-1)
	}
	tr.end(wlSpan)

	if o.probes {
		if err := runProbes(mt, m, o.scale); err != nil {
			return nil, err
		}
	}
	tr.end(runSpan)
	res.Spans = tr.spans
	return res, nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in
// MB. Where /proc does not offer it, the Go runtime's total obtained
// from the OS stands in.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
