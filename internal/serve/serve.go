// Package serve is the multi-tenant Smalltalk image server: a
// long-running host that boots the base image once, checkpoints it, and
// serves N independent tenant sessions, each a snapshot clone of the
// base heap, from an in-process request queue.
//
// Scheduling follows the conflict-class playbook of parallel state
// machine replication: every request names a tenant, the tenant is the
// request's conflict class (requests on the same session conflict;
// requests on different sessions are independent), and classes are
// assigned to executors by a fixed deterministic map (class mod
// executors). Each executor is one processor of a simulated Firefly
// front-end machine and drains its classes' requests in arrival order.
// Because an executor owns its classes outright, admission control and
// queueing are executor-local, and the served schedule — every latency,
// every rejection — is a pure function of the arrival schedule. That
// holds in -parallel mode too: real executor goroutines serve disjoint
// tenant sets concurrently and produce bit-identical virtual results,
// which is exactly the determinism-under-parallelism property early
// scheduling buys in replicated state machines.
//
// Admission control is a front door per executor: a request arriving
// when its executor already holds QueueDepth undone requests is shed
// (counted, never executed), and a tenant may hold at most TenantShare
// of the queue so one hot session cannot starve its neighbours.
// Request latency (completion minus arrival), queue wait, and service
// time feed trace.Histogram distributions — the PR 7 latency substrate
// — so the serve report carries exact-gateable p50/p95/p99/max columns.
package serve

import (
	"fmt"
	"sync"

	"mst/internal/core"
	"mst/internal/firefly"
	"mst/internal/serve/loadgen"
	"mst/internal/trace"
)

// Defaults for Config zero values.
const (
	DefaultQueueDepth = 8
	// dispatchCost is the front-end virtual cost of picking a request
	// off the class queue and switching to the tenant session: the
	// V-kernel-ish message dispatch the paper charges for cross-activity
	// work. Charged once per admitted request.
	dispatchCost = firefly.Time(25)
)

// Config configures a server.
type Config struct {
	Tenants   int // independent sessions (>= 1)
	Executors int // simulated front-end processors (>= 1)

	// QueueDepth bounds each executor's undone-request backlog
	// (in-service plus queued); arrivals beyond it are shed. 0 means
	// DefaultQueueDepth.
	QueueDepth int
	// TenantShare bounds one tenant's slots within the executor queue;
	// 0 means half the queue (minimum 1).
	TenantShare int

	// Parallel runs the executors as real goroutines (the front-end
	// machine's parallel host mode). Tenant sessions stay deterministic
	// single-processor machines, and executors own disjoint tenant
	// sets, so the virtual results are bit-identical to the
	// deterministic mode — only host wall time changes.
	Parallel bool

	// TraceEvents is the front-end flight-recorder capacity (0: off).
	// The exported Perfetto trace carries one track per tenant.
	TraceEvents int

	// Checkpoint reuses a prebooted base image (BootCheckpoint); nil
	// boots one. Sharing a checkpoint across servers amortizes the base
	// boot when sweeping configurations.
	Checkpoint *core.Checkpoint
}

// BootCheckpoint boots the base image — kernel plus the ServeSession
// protocol and the per-image `Session` instance — and captures the
// checkpoint every tenant session clones from. The boot runs on the
// production MS configuration with a right-sized old space (the kernel
// image occupies ~17k words; the default 4M-word geometry would cost
// 32 MB of host memory per tenant clone for nothing).
func BootCheckpoint() (*core.Checkpoint, error) {
	cfg := core.DefaultConfig()
	cfg.Processors = 1
	cfg.OldWords = 128 << 10
	cfg.ExtraSources = []string{SessionSource}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, fmt.Errorf("serve: base boot: %w", err)
	}
	defer sys.Shutdown()
	if _, err := sys.EvaluateInt(sessionInstall); err != nil {
		return nil, fmt.Errorf("serve: session install: %w", err)
	}
	cp, err := sys.Checkpoint()
	if err != nil {
		return nil, fmt.Errorf("serve: checkpoint: %w", err)
	}
	return cp, nil
}

// tenant is one session: a private clone of the base image,
// materialized lazily on first use so idle tenants cost nothing beyond
// the shared checkpoint.
type tenant struct {
	id   int
	once sync.Once
	sys  *core.System
	err  error
}

// Server hosts the tenant sessions.
type Server struct {
	cfg Config
	cp  *core.Checkpoint
	ten []*tenant
}

// NewServer builds a server. The base image is booted (or the supplied
// checkpoint reused); tenant sessions materialize on first request.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Tenants < 1 {
		return nil, fmt.Errorf("serve: need at least one tenant")
	}
	if cfg.Executors < 1 {
		cfg.Executors = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.TenantShare <= 0 {
		cfg.TenantShare = cfg.QueueDepth / 2
		if cfg.TenantShare < 1 {
			cfg.TenantShare = 1
		}
	}
	if cfg.TenantShare > cfg.QueueDepth {
		cfg.TenantShare = cfg.QueueDepth
	}
	cp := cfg.Checkpoint
	if cp == nil {
		var err error
		cp, err = BootCheckpoint()
		if err != nil {
			return nil, err
		}
	}
	s := &Server{cfg: cfg, cp: cp}
	for i := 0; i < cfg.Tenants; i++ {
		s.ten = append(s.ten, &tenant{id: i})
	}
	return s, nil
}

// Tenants returns the configured tenant count.
func (s *Server) Tenants() int { return s.cfg.Tenants }

// Executors returns the configured executor count.
func (s *Server) Executors() int { return s.cfg.Executors }

// ExecutorFor returns the executor a conflict class (tenant) is
// deterministically assigned to.
func (s *Server) ExecutorFor(class int) int { return class % s.cfg.Executors }

// session materializes (once) and returns tenant i's system.
func (s *Server) session(i int) (*core.System, error) {
	t := s.ten[i]
	t.once.Do(func() {
		t.sys, t.err = core.NewFromCheckpoint(1, s.cp)
	})
	return t.sys, t.err
}

// Eval is the synchronous request/response path: evaluate source
// against tenant's session and answer its printString. It bypasses
// admission control (no arrival schedule to admit against) and must not
// race an open-loop Run.
func (s *Server) Eval(tenantID int, source string) (string, error) {
	if tenantID < 0 || tenantID >= s.cfg.Tenants {
		return "", fmt.Errorf("serve: no tenant %d (have %d)", tenantID, s.cfg.Tenants)
	}
	sys, err := s.session(tenantID)
	if err != nil {
		return "", err
	}
	return sys.Evaluate(source)
}

// Shutdown stops every materialized tenant session.
func (s *Server) Shutdown() {
	for _, t := range s.ten {
		if t.sys != nil {
			t.sys.Shutdown()
		}
	}
}

// execState is one executor's run-local accumulator. Executors touch
// only their own state during a run, so the parallel mode needs no
// host locks here.
type execState struct {
	arrivals []loadgen.Arrival

	// done holds the completion times of admitted requests in
	// completion order (nondecreasing: the executor serves FIFO).
	// Backlog at an arrival is the count of completions still in the
	// future at that instant.
	done       []firefly.Time
	tenantDone map[int][]firefly.Time

	latency, wait, service trace.Histogram

	perTenant map[int]*TenantStats
	evalErr   error // first tenant materialization/VM failure, fatal
}

// backlog counts entries of done that are still undone at virtual time
// at. done is nondecreasing, so scan from the tail.
func backlog(done []firefly.Time, at firefly.Time) int {
	n := 0
	for i := len(done) - 1; i >= 0; i-- {
		if done[i] <= at {
			break
		}
		n++
	}
	return n
}

// tenantStats returns (creating) the per-tenant accumulator.
func (e *execState) tenantStats(id int) *TenantStats {
	ts := e.perTenant[id]
	if ts == nil {
		ts = &TenantStats{Tenant: id}
		e.perTenant[id] = ts
	}
	return ts
}

// runExecutor drains one executor's arrival stream on its front-end
// processor. Every scheduling decision reads only executor-local state
// and tenant sessions owned by this executor, so the routine is
// identical in deterministic and parallel host modes.
func (s *Server) runExecutor(p *firefly.Proc, e *execState, rec *trace.Recorder) {
	for _, a := range e.arrivals {
		if p.Stopped() {
			return
		}
		at := firefly.Time(a.At)
		ts := e.tenantStats(a.Tenant)
		ts.Offered++

		// The front door: shed at arrival time when the executor queue
		// (or the tenant's share of it) is full. A shed request never
		// occupies the executor.
		if backlog(e.done, at) >= s.cfg.QueueDepth {
			ts.Rejected++
			rec.Emit(trace.KServeReject, p.ID(), a.At, int64(a.Tenant), 0, "")
			continue
		}
		if backlog(e.tenantDone[a.Tenant], at) >= s.cfg.TenantShare {
			ts.Rejected++
			ts.RejectedShare++
			rec.Emit(trace.KServeReject, p.ID(), a.At, int64(a.Tenant), 1, "")
			continue
		}

		ts.Admitted++
		if p.Now() < at {
			// Open-loop: the executor idles until the next arrival.
			p.AdvanceIdle(at - p.Now())
		}
		start := p.Now()
		p.Advance(dispatchCost)

		k := a.Kind % len(Catalog)
		source, kindName := Catalog[k].Source, Catalog[k].Name
		sys, err := s.session(a.Tenant)
		if err != nil {
			e.evalErr = err
			return
		}
		vt0 := sys.VirtualTime()
		if _, err := sys.Evaluate(source); err != nil {
			ts.Errors++
		}
		// The session ran on its own single-processor machine; its
		// virtual-time delta is the request's service time, charged to
		// the executor that ran it.
		serviceT := sys.VirtualTime() - vt0
		p.Advance(serviceT)
		doneAt := p.Now()

		e.done = append(e.done, doneAt)
		e.tenantDone[a.Tenant] = append(e.tenantDone[a.Tenant], doneAt)
		ts.Completed++
		lat := doneAt - at
		e.latency.Record(int64(lat))
		e.wait.Record(int64(start - at))
		e.service.Record(int64(doneAt - start))
		ts.LatencySum += int64(lat)
		if int64(lat) > ts.LatencyMax {
			ts.LatencyMax = int64(lat)
		}
		rec.Emit(trace.KServeStart, p.ID(), int64(start), int64(a.Tenant), int64(start-at), kindName)
		rec.Emit(trace.KServeDone, p.ID(), int64(doneAt), int64(a.Tenant), int64(lat), "")
		// Quantum boundary: in the deterministic mode the front-end
		// driver resumes the executor with the smallest clock next, so
		// executors interleave in virtual-time order.
		p.Yield()
	}
}

// Run serves one open-loop arrival schedule to completion and reports
// the outcome. Arrivals must be in nondecreasing At order (as
// loadgen.Schedule produces). Run may be called repeatedly; tenant
// sessions persist across runs.
func (s *Server) Run(arrivals []loadgen.Arrival) (*Report, error) {
	execs := make([]*execState, s.cfg.Executors)
	for i := range execs {
		execs[i] = &execState{
			tenantDone: map[int][]firefly.Time{},
			perTenant:  map[int]*TenantStats{},
		}
	}
	for _, a := range arrivals {
		if a.Tenant < 0 || a.Tenant >= s.cfg.Tenants {
			return nil, fmt.Errorf("serve: arrival for tenant %d, have %d", a.Tenant, s.cfg.Tenants)
		}
		x := execs[s.ExecutorFor(a.Tenant)]
		x.arrivals = append(x.arrivals, a)
	}

	heapAtStart := make([]HeapWork, s.cfg.Tenants)
	for i := range heapAtStart {
		heapAtStart[i] = s.heapWork(i)
	}

	// The front-end machine: one simulated processor per executor. A
	// fresh machine per run keeps Run re-entrant (processor work
	// functions are one-shot); the tenant sessions — the expensive part
	// — persist on the server.
	front := firefly.New(s.cfg.Executors, firefly.DefaultCosts())
	var rec *trace.Recorder
	if s.cfg.TraceEvents > 0 {
		if s.cfg.Parallel {
			rec = trace.NewShardedRecorder(s.cfg.TraceEvents, s.cfg.Executors)
		} else {
			rec = trace.NewRecorder(s.cfg.TraceEvents)
		}
		front.SetRecorder(rec)
	}
	for i := 0; i < s.cfg.Executors; i++ {
		e := execs[i]
		front.Start(i, func(p *firefly.Proc) { s.runExecutor(p, e, rec) })
	}
	if s.cfg.Parallel {
		front.SetParallel(true)
	}
	if r := front.Run(nil); r != firefly.StopAllDone {
		front.Shutdown()
		return nil, fmt.Errorf("serve: front-end stopped early: %v", r)
	}
	front.Shutdown()
	for _, e := range execs {
		if e.evalErr != nil {
			return nil, e.evalErr
		}
	}
	return s.report(arrivals, execs, heapAtStart, rec), nil
}

// heapWork reads tenant i's cumulative heap counters. A tenant with no
// session yet has done no work, so one materialized during a run counts
// from zero.
func (s *Server) heapWork(i int) HeapWork {
	sys := s.ten[i].sys
	if sys == nil {
		return HeapWork{}
	}
	h := sys.VM.H.Stats()
	return HeapWork{
		Scavenges:       h.Scavenges,
		CopiedWords:     h.CopiedWords,
		TenuredWords:    h.TenuredWords,
		FullCollections: h.FullCollections,
	}
}

// report merges the executor-local accumulators into one Report, with
// the request totals summed from the per-tenant counts, and the
// tenants' heap work since heapAtStart.
func (s *Server) report(arrivals []loadgen.Arrival, execs []*execState, heapAtStart []HeapWork, rec *trace.Recorder) *Report {
	r := &Report{
		Tenants:     s.cfg.Tenants,
		Executors:   s.cfg.Executors,
		QueueDepth:  s.cfg.QueueDepth,
		TenantShare: s.cfg.TenantShare,
		Parallel:    s.cfg.Parallel,
		Offered:     len(arrivals),
		recorder:    rec,
		numProcs:    s.cfg.Executors,
	}
	var latency, wait, service trace.Histogram
	perTenant := map[int]*TenantStats{}
	for _, e := range execs {
		latency.Merge(&e.latency)
		wait.Merge(&e.wait)
		service.Merge(&e.service)
		for id, ts := range e.perTenant {
			perTenant[id] = ts
		}
		for _, d := range e.done {
			if int64(d) > r.MakespanTicks {
				r.MakespanTicks = int64(d)
			}
		}
	}
	r.Latency = latency.Snapshot()
	r.Wait = wait.Snapshot()
	r.Service = service.Snapshot()
	for i := 0; i < s.cfg.Tenants; i++ {
		ts := perTenant[i]
		if ts == nil {
			ts = &TenantStats{Tenant: i}
		}
		ts.Executor = s.ExecutorFor(i)
		r.Admitted += ts.Admitted
		r.Rejected += ts.Rejected
		r.RejectedShare += ts.RejectedShare
		r.Completed += ts.Completed
		r.Errors += ts.Errors
		ts.Heap = s.heapWork(i).since(heapAtStart[i])
		r.TenantHeap.add(ts.Heap)
		r.PerTenant = append(r.PerTenant, *ts)
	}
	// After the loop: Completed is summed from the tenants above.
	if r.MakespanTicks > 0 {
		r.ThroughputRPS = float64(r.Completed) * 1e6 / float64(r.MakespanTicks)
	}
	return r
}
