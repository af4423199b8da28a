package serve

import (
	"fmt"
	"io"
	"strings"

	"mst/internal/trace"
)

// TenantStats is one tenant's request accounting for a run.
type TenantStats struct {
	Tenant        int      `json:"tenant"`
	Executor      int      `json:"executor"`
	Offered       int      `json:"offered"`
	Admitted      int      `json:"admitted"`
	Rejected      int      `json:"rejected"`
	RejectedShare int      `json:"rejected_share"`
	Completed     int      `json:"completed"`
	Errors        int      `json:"errors"`
	LatencySum    int64    `json:"latency_sum_ticks"`
	LatencyMax    int64    `json:"latency_max_ticks"`
	Heap          HeapWork `json:"heap"`
}

// HeapWork is the collection work of tenant heaps over one Run: the
// difference of heap.Stats read when the run starts and when it ends
// (from zero for a tenant materialized during the run).
type HeapWork struct {
	Scavenges       uint64 `json:"scavenges"`
	CopiedWords     uint64 `json:"copied_words"`
	TenuredWords    uint64 `json:"tenured_words"`
	FullCollections uint64 `json:"full_collections"`
}

func (w *HeapWork) add(o HeapWork) {
	w.Scavenges += o.Scavenges
	w.CopiedWords += o.CopiedWords
	w.TenuredWords += o.TenuredWords
	w.FullCollections += o.FullCollections
}

// since is the work done between the readings start and w.
func (w HeapWork) since(start HeapWork) HeapWork {
	return HeapWork{
		Scavenges:       w.Scavenges - start.Scavenges,
		CopiedWords:     w.CopiedWords - start.CopiedWords,
		TenuredWords:    w.TenuredWords - start.TenuredWords,
		FullCollections: w.FullCollections - start.FullCollections,
	}
}

// Report is the outcome of serving one open-loop schedule. Every field
// is virtual-time-derived and deterministic (host wall time is measured
// by callers that care, outside this package), so the serve benchmark
// gates these columns exactly.
//
// Its JSON form is one row of msbench's serve section: the server
// geometry and the per-tenant table stay out of it.
type Report struct {
	Tenants       int  `json:"-"`
	Executors     int  `json:"executors"`
	QueueDepth    int  `json:"-"`
	TenantShare   int  `json:"-"`
	Parallel      bool `json:"parallel"`
	Offered       int  `json:"offered"`
	Admitted      int  `json:"admitted"`
	Rejected      int  `json:"rejected"`
	RejectedShare int  `json:"rejected_share"`
	Completed     int  `json:"completed"`
	Errors        int  `json:"errors"`
	// MakespanTicks is the virtual time of the last completion.
	MakespanTicks int64 `json:"makespan_ticks"`
	// ThroughputRPS is the served throughput in requests per virtual
	// second (ticks are virtual microseconds).
	ThroughputRPS float64 `json:"throughput_rps"`

	// Request-latency distributions in virtual ticks (the PR 7
	// histogram substrate): end-to-end latency (completion - arrival),
	// queue wait (pickup - arrival), and service (completion - pickup).
	Latency trace.HistSnapshot `json:"latency"`
	Wait    trace.HistSnapshot `json:"wait"`
	Service trace.HistSnapshot `json:"service"`

	// TenantHeap sums the tenants' heap work over the run.
	TenantHeap HeapWork `json:"tenant_heap"`

	PerTenant []TenantStats `json:"-"`

	recorder *trace.Recorder
	numProcs int
}

// WriteTrace exports the run's front-end flight recording (request
// slices on one Perfetto track per tenant, plus the executor quantum
// tracks) as Chrome trace-event JSON. It errors when tracing was off.
func (r *Report) WriteTrace(w io.Writer) error {
	if r.recorder == nil {
		return fmt.Errorf("serve: tracing was not enabled (Config.TraceEvents)")
	}
	return trace.WritePerfetto(w, r.recorder.Events(), r.numProcs)
}

// Format renders the report as deterministic text: every number is
// virtual, so two runs of the same schedule in the same mode render
// byte-identical reports (TestDetReportStable and TestParallelMatchesDet
// check exactly this).
func (r *Report) Format() string {
	var b strings.Builder
	mode := "det"
	if r.Parallel {
		mode = "parallel"
	}
	fmt.Fprintf(&b, "msserve: %d tenants on %d executors (%s), queue depth %d, tenant share %d\n",
		r.Tenants, r.Executors, mode, r.QueueDepth, r.TenantShare)
	fmt.Fprintf(&b, "  offered %d  admitted %d  rejected %d (%d by tenant share)  completed %d  errors %d\n",
		r.Offered, r.Admitted, r.Rejected, r.RejectedShare, r.Completed, r.Errors)
	fmt.Fprintf(&b, "  makespan %d ticks  throughput %.1f req/s (virtual)\n",
		r.MakespanTicks, r.ThroughputRPS)
	b.WriteString("  request latency (virtual ticks)\n")
	fmt.Fprintf(&b, "  %-10s %8s %10s %8s %8s %8s %8s\n",
		"series", "count", "mean", "p50", "p95", "p99", "max")
	b.WriteString(histRow("latency", r.Latency))
	b.WriteString(histRow("wait", r.Wait))
	b.WriteString(histRow("service", r.Service))
	h := r.TenantHeap
	fmt.Fprintf(&b, "  tenant heap: %d scavenges  %d words copied  %d words tenured  %d full collections\n",
		h.Scavenges, h.CopiedWords, h.TenuredWords, h.FullCollections)
	b.WriteString("  per tenant\n")
	fmt.Fprintf(&b, "  %-8s %4s %8s %9s %9s %10s %7s %12s\n",
		"tenant", "exec", "offered", "admitted", "rejected", "completed", "errors", "max-lat")
	for _, ts := range r.PerTenant {
		fmt.Fprintf(&b, "  %-8d %4d %8d %9d %9d %10d %7d %12d\n",
			ts.Tenant, ts.Executor, ts.Offered, ts.Admitted, ts.Rejected,
			ts.Completed, ts.Errors, ts.LatencyMax)
	}
	return b.String()
}

// histRow renders one distribution with the p95 column the server SLOs
// are stated in.
func histRow(name string, s trace.HistSnapshot) string {
	if s.Count == 0 {
		return fmt.Sprintf("  %-10s %8s\n", name, "-")
	}
	mean := float64(s.Sum) / float64(s.Count)
	return fmt.Sprintf("  %-10s %8d %10.1f %8d %8d %8d %8d\n",
		name, s.Count, mean, s.P50, s.P95, s.P99, s.Max)
}
