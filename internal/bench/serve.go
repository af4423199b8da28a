package bench

import (
	"fmt"
	"strings"

	"mst/internal/core"
	"mst/internal/serve"
	"mst/internal/serve/loadgen"
	"mst/internal/trace"
)

// The msserve benchmark (the `serve` section of msbench -json): one
// fixed open-loop schedule against the multi-tenant image server at
// 1/2/4/8 executors, plus a parallel-host equivalence row. Every column
// is virtual-time derived, so the rows ride the exact regression gate.

const (
	serveBenchTenants  = 8
	serveBenchRequests = 320
	serveBenchGapTicks = 700
	serveBenchSeed     = 1988
)

// serveExecCounts are the front-end sizes measured. The offered rate is
// fixed, so the sweep shows admission control shedding at 1 executor
// and latency collapsing as executors absorb the conflict classes.
var serveExecCounts = []int{1, 2, 4, 8}

// ServeRow is one front-end configuration's results.
type ServeRow struct {
	Executors     int                `json:"executors"`
	Parallel      bool               `json:"parallel"`
	Offered       int                `json:"offered"`
	Admitted      int                `json:"admitted"`
	Rejected      int                `json:"rejected"`
	RejectedShare int                `json:"rejected_share"`
	Completed     int                `json:"completed"`
	Errors        int                `json:"errors"`
	MakespanTicks int64              `json:"makespan_ticks"`
	ThroughputRPS float64            `json:"throughput_rps"` // virtual req/s, derived
	Latency       trace.HistSnapshot `json:"latency"`
	Wait          trace.HistSnapshot `json:"wait"`
	Service       trace.HistSnapshot `json:"service"`
	TenantHeap    serve.HeapWork     `json:"tenant_heap"`
}

// ServeBenchReport is the full serve section.
type ServeBenchReport struct {
	Tenants      int        `json:"tenants"`
	Requests     int        `json:"requests"`
	MeanGapTicks int64      `json:"mean_gap_ticks"`
	Seed         uint64     `json:"seed"`
	QueueDepth   int        `json:"queue_depth"`
	TenantShare  int        `json:"tenant_share"`
	Rows         []ServeRow `json:"rows"`
	// ParallelMatchesDet records the early-scheduling equivalence check:
	// the 4-executor schedule served by real goroutines rendered a
	// report identical (modulo the mode banner) to the deterministic
	// driver's. Gated to stay true.
	ParallelMatchesDet bool `json:"parallel_matches_det"`
}

// runServeOnce serves the schedule on a fresh server (sharing the
// booted checkpoint) and flattens the report into a row.
func runServeOnce(cp *core.Checkpoint, executors int, parallel bool, arrivals []loadgen.Arrival) (ServeRow, *serve.Report, error) {
	srv, err := serve.NewServer(serve.Config{
		Tenants:    serveBenchTenants,
		Executors:  executors,
		Parallel:   parallel,
		Checkpoint: cp,
	})
	if err != nil {
		return ServeRow{}, nil, err
	}
	defer srv.Shutdown()
	rep, err := srv.Run(arrivals)
	if err != nil {
		return ServeRow{}, nil, fmt.Errorf("bench: serve (executors=%d par=%v): %w", executors, parallel, err)
	}
	row := ServeRow{
		Executors:     executors,
		Parallel:      parallel,
		Offered:       rep.Offered,
		Admitted:      rep.Admitted,
		Rejected:      rep.Rejected,
		RejectedShare: rep.RejectedShare,
		Completed:     rep.Completed,
		Errors:        rep.Errors,
		MakespanTicks: rep.MakespanTicks,
		ThroughputRPS: rep.ThroughputRPS(),
		Latency:       rep.Latency,
		Wait:          rep.Wait,
		Service:       rep.Service,
		TenantHeap:    rep.TenantHeap,
	}
	// The summary columns (count/sum/max/percentiles) suffice for the
	// gate; the full bucket vectors would dominate the report size.
	row.Latency.Buckets, row.Wait.Buckets, row.Service.Buckets = nil, nil, nil
	return row, rep, nil
}

// RunServeBench measures the serve section: the executor sweep in
// deterministic mode, then the parallel equivalence row.
func RunServeBench() (*ServeBenchReport, error) {
	cp, err := serve.BootCheckpoint()
	if err != nil {
		return nil, err
	}
	arrivals := loadgen.Schedule(loadgen.Config{
		Seed:         serveBenchSeed,
		Requests:     serveBenchRequests,
		MeanGapTicks: serveBenchGapTicks,
		Tenants:      serveBenchTenants,
		Kinds:        len(serve.Catalog),
		HotTenant:    -1,
	})
	r := &ServeBenchReport{
		Tenants:      serveBenchTenants,
		Requests:     serveBenchRequests,
		MeanGapTicks: serveBenchGapTicks,
		Seed:         serveBenchSeed,
		QueueDepth:   serve.DefaultQueueDepth,
		TenantShare:  serve.DefaultQueueDepth / 2,
	}
	var det4 *serve.Report
	for _, ex := range serveExecCounts {
		row, rep, err := runServeOnce(cp, ex, false, arrivals)
		if err != nil {
			return nil, err
		}
		if ex == 4 {
			det4 = rep
		}
		r.Rows = append(r.Rows, row)
	}
	parRow, parRep, err := runServeOnce(cp, 4, true, arrivals)
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, parRow)
	r.ParallelMatchesDet = strings.Replace(det4.Format(), "(det)", "(parallel)", 1) == parRep.Format()
	return r, nil
}

// name labels the row in Format's tables.
func (row *ServeRow) name() string {
	if row.Parallel {
		return fmt.Sprintf("%d (par)", row.Executors)
	}
	return fmt.Sprintf("%d", row.Executors)
}

// Format renders the serve section as the throughput/latency table the
// experiment log quotes.
func (r *ServeBenchReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "msserve: %d tenants, %d open-loop requests (mean gap %d ticks, seed %d), queue %d, share %d\n",
		r.Tenants, r.Requests, r.MeanGapTicks, r.Seed, r.QueueDepth, r.TenantShare)
	fmt.Fprintf(&b, "  %-10s %9s %9s %10s %12s %8s %8s %8s %8s\n",
		"executors", "admitted", "rejected", "completed", "throughput", "p50", "p95", "p99", "max")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %9d %9d %10d %10.1f/s %8d %8d %8d %8d\n",
			row.name(), row.Admitted, row.Rejected, row.Completed, row.ThroughputRPS,
			row.Latency.P50, row.Latency.P95, row.Latency.P99, row.Latency.Max)
	}
	b.WriteString("  tenant heap work over the run\n")
	fmt.Fprintf(&b, "  %-10s %9s %10s %10s %8s %11s %12s\n",
		"executors", "scavenges", "copied", "tenured", "full-gc", "copied/req", "tenured/req")
	for _, row := range r.Rows {
		h, n := row.TenantHeap, float64(max(row.Completed, 1))
		fmt.Fprintf(&b, "  %-10s %9d %10d %10d %8d %11.1f %12.1f\n",
			row.name(), h.Scavenges, h.CopiedWords, h.TenuredWords, h.FullCollections,
			float64(h.CopiedWords)/n, float64(h.TenuredWords)/n)
	}
	fmt.Fprintf(&b, "  parallel matches det: %v\n", r.ParallelMatchesDet)
	return b.String()
}
