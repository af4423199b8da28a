package main

import (
	"fmt"
	"strings"
	"time"

	"mst/internal/bench"
	"mst/internal/core"
	"mst/internal/interp"
	"mst/internal/serve"
	"mst/internal/serve/loadgen"
)

// A pass is one fixed unit of work; an op is one timed call inside it.
// Every workload is closed-loop with one driver goroutine, runs the
// program in its deterministic host mode, and does identical virtual
// work in every pass of every run, so exact counters over the first
// exactPasses passes repeat bit for bit.

// passRec collects what one pass (and the request round after it)
// produced.
type passRec struct {
	ns, cu    float64    // Σ over the pass's timed ops
	ops       []opSample // the timed ops, in order
	virt      []int64    // the ops' virtual results, for the fingerprint
	reqMCU    []float64  // latency of each request of the round, mCU
	reqNs     float64    // Σ raw latency of the round's requests
	primeNs   float64    // serve: first touch of every tenant before the round
	attempted int        // ops + requests + answer checks
	fails     []string   // one line per error, refusal or wrong answer
}

type opSample struct {
	name   string
	ns, cu float64
}

func (r *passRec) failf(format string, args ...any) {
	r.fails = append(r.fails, fmt.Sprintf(format, args...))
}

// timeOp runs f as one timed op of the pass.
func (r *passRec) timeOp(m *meter, name string, f func()) {
	ns, cu := m.op(name, f)
	r.ns += ns
	r.cu += cu
	r.ops = append(r.ops, opSample{name, ns, cu})
	r.attempted++
}

// instance is one set-up workload, ready to run passes.
type instance interface {
	// pass runs the pass's timed ops. The caller has just calibrated.
	pass(m *meter, r *passRec)
	// requests issues one round of small, individually timed requests
	// and checks every reply. It is outside the pass's timed region.
	requests(m *meter, r *passRec)
	// counters snapshots the exact counters; ok is false when the
	// workload's systems are not reachable from outside (serve).
	counters() (c counters, ok bool)
	close()
}

type workload struct {
	name string
	why  string
	// exactPasses is how many passes the exact counts and the
	// fingerprint cover. The window always runs at least this many,
	// then keeps going until its time is up.
	exactPasses int
	setup       func(seed uint64, tr *tracer) (instance, error)
}

// fastConfig is the macro_fast system: baseline BS with the template
// tier, polymorphic inline caches and the 2-way method cache.
func fastConfig() core.Config {
	c := core.BaselineConfig()
	c.JIT = true
	c.InlineCache = interp.ICPoly
	c.CacheWays = 2
	return c
}

var workloads = []*workload{
	{
		name:        "macro_uni",
		why:         "8 Table-2 macros on baseline BS, 1 processor, switch interpreter: the paper's reference row; no handoff, so a firefly change must not move it",
		exactPasses: 20,
		setup:       macroSetup(bench.StandardStates()[0], 4),
	},
	{
		name:        "macro_fast",
		why:         "same macros with msjit + polymorphic inline caches + 2-way cache: the interp layer's other engine, so a gain for one that costs the other shows",
		exactPasses: 20,
		setup:       macroSetup(bench.State{Name: "fast", Config: fastConfig}, 4),
	},
	{
		name:        "macro_ms5",
		why:         "same macros on MS with 5 processors, 4 idle: identical foreground bytecodes at 2.3x the host cost, from ten times the baton handoffs and four idle interpreters polling",
		exactPasses: 8,
		setup:       macroSetup(bench.StandardStates()[1], 8),
	},
	{
		name:        "macro_busy5",
		why:         "same macros on MS with 4 busy background Processes: the paper's worst case; spinlocks, bus model and per-processor caches all live, handoff a small share",
		exactPasses: 3,
		setup:       macroSetup(bench.StandardStates()[3], 15),
	},
	{
		name:        "gc_churn",
		why:         "seeded allocation storm into a tenured array with full collections: the only workload where heap does most of the work and mark-compact runs",
		exactPasses: 20,
		setup:       churnSetup,
	},
	{
		name:        "serve_mixed",
		why:         "4000-arrival open-loop schedule over 16 tenant clones plus the same requests one by one: the only path through serve, checkpoint clone and compiler",
		exactPasses: 5,
		setup:       serveSetup,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---- workloads on one core.System: the four macro_* and gc_churn ----

// sysOp is one timed evaluation. want < 0 means the answer is a
// virtual time with no closed form (a macro); otherwise it is checked.
type sysOp struct {
	name string
	run  func(*core.System) (int64, error)
	want int64
}

type sysInstance struct {
	sys       *core.System
	ops       []sysOp
	reqBlocks int // request blocks per round
}

// canariesPerBlock requests share one pair of bracketing kernel runs.
const canariesPerBlock = 3 * numCanaries

func (s *sysInstance) pass(m *meter, r *passRec) {
	for _, op := range s.ops {
		var got int64
		var err error
		r.timeOp(m, "op:"+op.name, func() { got, err = op.run(s.sys) })
		r.virt = append(r.virt, got)
		switch {
		case err != nil:
			r.failf("%s: %v", op.name, err)
		case op.want >= 0 && got != op.want:
			r.failf("%s: answered %d, want %d", op.name, got, op.want)
		}
	}
}

func (s *sysInstance) requests(m *meter, r *passRec) {
	for b := 0; b < s.reqBlocks; b++ {
		var got string
		var err error
		timedBlock(m, r, "requests", canariesPerBlock,
			func(i int) { got, err = s.sys.Evaluate(canaries[i%numCanaries].source) },
			func(i int) {
				c := canaries[i%numCanaries]
				if err != nil {
					r.failf("canary %q: %v", c.source, err)
				} else if got != c.want {
					r.failf("canary %q: answered %s, want %s", c.source, got, c.want)
				}
			})
	}
}

func (s *sysInstance) counters() (counters, bool) { return readCounters(s.sys), true }
func (s *sysInstance) close()                     { s.sys.Shutdown() }

// timedBlock issues n requests back to back, each timed on its own,
// between two kernel runs; do(i) is the timed call and verify(i) checks
// its reply outside the timing. Latencies land in r.reqMCU.
func timedBlock(m *meter, r *passRec, name string, n int, do, verify func(i int)) {
	left := m.unit()
	sp := m.tr.begin(name)
	first := len(r.reqMCU)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		do(i)
		r.reqMCU = append(r.reqMCU, float64(time.Since(t0)))
		verify(i)
	}
	m.tr.end(sp)
	m.calibrate()
	unit := (left + m.unit()) / 2
	for i := first; i < len(r.reqMCU); i++ {
		r.reqNs += r.reqMCU[i]
		r.reqMCU[i] = r.reqMCU[i] / unit * 1000
	}
	r.attempted += n
}

// macroSetup builds the set-up function of a macro_* workload: boot the
// state's system with the macro sources, start its background
// Processes, and fix this seed's macro order.
func macroSetup(st bench.State, reqBlocks int) func(uint64, *tracer) (instance, error) {
	return func(seed uint64, tr *tracer) (instance, error) {
		// Boot and background spawn are separate spans, so boot the
		// state without its background and start that by hand.
		boot := st
		boot.Background = nil
		sp := tr.begin("core.NewSystem")
		sys, err := bench.NewBenchSystem(boot)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if st.Background != nil {
			sp := tr.begin("SpawnBusyProcesses")
			err := st.Background(sys)
			tr.end(sp)
			if err != nil {
				sys.Shutdown()
				return nil, fmt.Errorf("background: %w", err)
			}
		}
		rng := &splitmix{x: seed}
		inst := &sysInstance{sys: sys, reqBlocks: reqBlocks}
		for _, i := range rng.perm(len(bench.MacroBenchmarks)) {
			sel := bench.MacroBenchmarks[i].Selector
			inst.ops = append(inst.ops, sysOp{
				name: sel,
				run:  func(s *core.System) (int64, error) { return bench.RunMacro(s, sel) },
				want: -1,
			})
		}
		return inst, nil
	}
}

// ---- gc_churn ----

// The churn program: churnRounds rounds, each allocating churnSlots
// arrays of churnWords words and storing them into a tenured holder at
// seeded slots, so each round's arrays survive their scavenges, tenure,
// and die in old space when the next round overwrites them. Every third
// array gets a fresh young child (an old→young store once the parent
// tenures); every fourth round ends in a full collection.
const (
	churnRounds = 12
	churnSlots  = 1500
	churnWords  = 96
)

// churnStrides are coprime to churnSlots, so i*stride+offset visits
// every slot once per round whatever the seed picks.
var churnStrides = []int{7, 11, 13, 17, 19, 23, 29, 31}

func churnSetup(seed uint64, tr *tracer) (instance, error) {
	sp := tr.begin("core.NewSystem")
	sys, err := core.NewSystem(core.BaselineConfig())
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	// The holder must be old before the first pass: tenure it with
	// TenureAge collections.
	install := fmt.Sprintf("Smalltalk at: 'ChurnHolder' put: (Array new: %d). "+
		"%d timesRepeat: [Smalltalk garbageCollect]. ChurnHolder size",
		churnSlots, sys.Cfg.TenureAge+1)
	if n, err := sys.EvaluateInt(install); err != nil || n != churnSlots {
		sys.Shutdown()
		return nil, fmt.Errorf("install churn holder: answered %d, %v", n, err)
	}
	rng := &splitmix{x: seed}
	stride := churnStrides[rng.intn(len(churnStrides))]
	offset := rng.intn(churnSlots)
	base := 1 + rng.intn(1000)
	source, want := churnProgram(stride, offset, base)
	inst := &sysInstance{
		sys:       sys,
		reqBlocks: 2,
		ops: []sysOp{{
			name: "churn",
			run:  func(s *core.System) (int64, error) { return s.EvaluateInt(source) },
			want: want,
		}},
	}
	return inst, nil
}

// churnProgram generates the Smalltalk source of one pass and computes,
// in Go, the answer it must give: the holder's stamp checksum times
// 2^15 plus the number of arrays allocated.
func churnProgram(stride, offset, base int) (source string, want int64) {
	var b strings.Builder
	fmt.Fprintf(&b, "| n sum | n := 0. ")
	fmt.Fprintf(&b, "1 to: %d do: [:r | ", churnRounds)
	fmt.Fprintf(&b, "1 to: %d do: [:i | | a | ", churnSlots)
	fmt.Fprintf(&b, "a := Array new: %d. ", churnWords)
	fmt.Fprintf(&b, "a at: 1 put: r * %d + i + %d. ", churnSlots, base)
	fmt.Fprintf(&b, "i \\\\ 3 = 0 ifTrue: [a at: 2 put: (Array new: 4)]. ")
	fmt.Fprintf(&b, "ChurnHolder at: i * %d + %d \\\\ %d + 1 put: a. ", stride, offset, churnSlots)
	fmt.Fprintf(&b, "n := n + 1]. ")
	fmt.Fprintf(&b, "r \\\\ 4 = 0 ifTrue: [Smalltalk garbageCollect]]. ")
	fmt.Fprintf(&b, "sum := 0. 1 to: %d do: [:i | sum := sum + ((ChurnHolder at: i) at: 1)]. ", churnSlots)
	fmt.Fprintf(&b, "sum * 32768 + n")

	holder := make([]int64, churnSlots)
	var n int64
	for r := 1; r <= churnRounds; r++ {
		for i := 1; i <= churnSlots; i++ {
			holder[(i*stride+offset)%churnSlots] = int64(r*churnSlots + i + base)
			n++
		}
	}
	var sum int64
	for _, v := range holder {
		sum += v
	}
	return b.String(), sum*32768 + n
}

// ---- serve_mixed ----

const (
	serveTenants   = 16
	serveExecutors = 4
	serveRequests  = 4000
	serveMeanGap   = 2000
	// serveQueueDepth is deep enough that no seed's schedule is shed:
	// the contract wants workloads on which no operation fails, and a
	// refusal would also make the Go model of the sessions inexact.
	// Admission control still runs on every arrival.
	serveQueueDepth = 64
	// serveEvalBlock requests share one pair of bracketing kernel runs
	// in the eval phase.
	serveEvalBlock = 250
)

type serveInstance struct {
	cfg      serve.Config
	arrivals []loadgen.Arrival
	last     *serve.Report
}

func serveSetup(seed uint64, tr *tracer) (instance, error) {
	sp := tr.begin("serve.BootCheckpoint")
	cp, err := serve.BootCheckpoint()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &serveInstance{
		cfg: serve.Config{
			Tenants:    serveTenants,
			Executors:  serveExecutors,
			QueueDepth: serveQueueDepth,
			Checkpoint: cp,
		},
		arrivals: loadgen.Schedule(loadgen.Config{
			Seed:         seed,
			Requests:     serveRequests,
			MeanGapTicks: serveMeanGap,
			Tenants:      serveTenants,
			Kinds:        len(serve.Catalog),
			HotTenant:    -1,
		}),
	}, nil
}

// pass is the run phase: a fresh server serves the whole open-loop
// schedule, so the 16 checkpoint clones are inside the pass.
func (s *serveInstance) pass(m *meter, r *passRec) {
	var srv *serve.Server
	var rep *serve.Report
	var err error
	r.timeOp(m, "serve.NewServer", func() { srv, err = serve.NewServer(s.cfg) })
	if err != nil {
		r.failf("serve.NewServer: %v", err)
		return
	}
	r.timeOp(m, "serve.Run", func() { rep, err = srv.Run(s.arrivals) })
	if err != nil {
		r.failf("serve.Run: %v", err)
	} else {
		s.last = rep
		r.virt = append(r.virt,
			int64(rep.Offered), int64(rep.Admitted), int64(rep.Rejected),
			int64(rep.Completed), int64(rep.Errors), rep.MakespanTicks,
			rep.Latency.P50, rep.Latency.P95, rep.Latency.P99, rep.Latency.Max,
			rep.Wait.P99, rep.Service.P99)
		if bad := rep.Offered - rep.Completed + rep.Errors; bad > 0 {
			r.failf("serve.Run: %d of %d requests refused or failed", bad, rep.Offered)
		}
		// Every tenant's session must now be where the Go model says
		// the schedule left it.
		sp := m.tr.begin("check")
		model := make([]sessionModel, serveTenants)
		for _, a := range s.arrivals {
			model[a.Tenant].apply(a.Kind)
		}
		for t := range model {
			r.attempted++
			got, err := srv.Eval(t, "Session digest")
			if want := model[t].digest(); err != nil || got != want {
				r.failf("tenant %d after Run: digest %s, %v; want %s", t, got, err, want)
			}
		}
		m.tr.end(sp)
		m.calibrate()
	}
	r.timeOp(m, "serve.Shutdown", srv.Shutdown)
}

// requests is the eval phase: a fresh server, the same requests issued
// one at a time through Server.Eval, each timed and each reply checked
// against the model.
func (s *serveInstance) requests(m *meter, r *passRec) {
	srv, err := serve.NewServer(s.cfg)
	if err != nil {
		r.failf("serve.NewServer: %v", err)
		return
	}
	defer srv.Shutdown()
	// First touch materializes a tenant's clone; keep that out of the
	// request latencies.
	sp := m.tr.begin("core.NewFromCheckpoint")
	t0 := time.Now()
	for t := 0; t < serveTenants; t++ {
		r.attempted++
		if got, err := srv.Eval(t, "Session hits"); err != nil || got != "0" {
			r.failf("tenant %d fresh: hits %s, %v; want 0", t, got, err)
		}
	}
	r.primeNs = float64(time.Since(t0))
	m.tr.end(sp)
	m.calibrate()
	model := make([]sessionModel, serveTenants)
	for start := 0; start < len(s.arrivals); start += serveEvalBlock {
		block := s.arrivals[start:min(start+serveEvalBlock, len(s.arrivals))]
		var got string
		var err error
		timedBlock(m, r, "serve.Eval", len(block),
			func(i int) {
				a := block[i]
				got, err = srv.Eval(a.Tenant, serve.Catalog[a.Kind].Source)
			},
			func(i int) {
				a := block[i]
				want := model[a.Tenant].apply(a.Kind)
				if err != nil || got != want {
					r.failf("tenant %d %s: answered %s, %v; want %s",
						a.Tenant, serve.Catalog[a.Kind].Name, got, err, want)
				}
			})
	}
}

func (s *serveInstance) counters() (counters, bool) { return counters{}, false }
func (s *serveInstance) close()                     {}
