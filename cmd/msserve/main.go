// Command msserve is the multi-tenant Smalltalk image server: it boots
// the base image once, clones it into N independent tenant sessions,
// and serves an open-loop request schedule against them with admission
// control and conflict-class scheduling (one executor owns each
// tenant's requests outright).
//
//	msserve -tenants 4 -requests 500          serve a seeded open-loop run
//	msserve -parallel                         real executor goroutines;
//	                                          virtual results bit-identical
//	msserve -trace serve.json                 per-tenant Perfetto tracks
//	msserve -stdin                            interactive: "TENANT<TAB>EXPR"
//	                                          lines, one "TENANT<TAB>ANSWER"
//	                                          or "TENANT<TAB>error: ..." each
//
// The run report on stdout is purely virtual-time derived: two runs
// with the same flags produce byte-identical stdout (TestDetReportStable
// holds it, and TestParallelMatchesDet holds -parallel to the same
// numbers). Host-side timings go to stderr.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"mst/internal/serve"
	"mst/internal/serve/loadgen"
)

func main() {
	var (
		tenants   = flag.Int("tenants", 4, "independent tenant sessions")
		executors = flag.Int("executors", 2, "front-end executors (conflict-class workers)")
		requests  = flag.Int("requests", 500, "open-loop requests to schedule")
		rate      = flag.Int64("rate", 2000, "mean virtual inter-arrival gap in ticks")
		seed      = flag.Uint64("seed", 1988, "arrival-schedule seed")
		queue     = flag.Int("queue", serve.DefaultQueueDepth, "executor queue depth (admission bound)")
		share     = flag.Int("share", 0, "per-tenant queue share (0: half the queue)")
		hot       = flag.Int("hot", -1, "hot tenant id (-1: uniform load)")
		hotPct    = flag.Int("hotpct", 80, "percent of arrivals routed to the hot tenant")
		parallel  = flag.Bool("parallel", false, "run executors as real goroutines")
		traceOut  = flag.String("trace", "", "write Chrome trace-event JSON (per-tenant tracks) to this file")
		stdin     = flag.Bool("stdin", false, "serve TENANT<TAB>EXPR lines from stdin instead of a schedule")
	)
	flag.Parse()

	t0 := time.Now()
	cp, err := serve.BootCheckpoint()
	if err != nil {
		fatal(err)
	}
	bootHost := time.Since(t0)

	traceEvents := 0
	if *traceOut != "" {
		traceEvents = 1 << 16
	}
	srv, err := serve.NewServer(serve.Config{
		Tenants:     *tenants,
		Executors:   *executors,
		QueueDepth:  *queue,
		TenantShare: *share,
		Parallel:    *parallel,
		TraceEvents: traceEvents,
		Checkpoint:  cp,
	})
	if err != nil {
		fatal(err)
	}
	defer srv.Shutdown()

	if *stdin {
		if err := serveStdin(srv, os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	arrivals := loadgen.Schedule(loadgen.Config{
		Seed:         *seed,
		Requests:     *requests,
		MeanGapTicks: *rate,
		Tenants:      *tenants,
		Kinds:        len(serve.Catalog),
		HotTenant:    *hot,
		HotPercent:   *hotPct,
	})
	t1 := time.Now()
	rep, err := srv.Run(arrivals)
	if err != nil {
		fatal(err)
	}
	runHost := time.Since(t1)

	// Deterministic report on stdout; host-side wall times on stderr, so
	// stdout is the byte-stable report TestDetReportStable checks.
	fmt.Print(rep.Format())
	fmt.Fprintf(os.Stderr, "host: boot %v, run %v\n", bootHost.Round(time.Microsecond), runHost.Round(time.Microsecond))

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := rep.WriteTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace: wrote %s\n", *traceOut)
	}
}

// serveStdin is the interactive request/response loop: each input line
// is "TENANT<TAB>EXPR" (or just "EXPR" for tenant 0); each output line
// is "TENANT<TAB>" and the tenant's printString response, or "error: "
// and why the request failed.
func serveStdin(srv *serve.Server, in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		tenant, expr := 0, line
		if id, rest, ok := strings.Cut(line, "\t"); ok {
			if n, err := strconv.Atoi(strings.TrimSpace(id)); err == nil {
				tenant, expr = n, rest
			}
		}
		res, err := srv.Eval(tenant, expr)
		if err != nil {
			res = "error: " + err.Error()
		}
		fmt.Fprintf(out, "%d\t%s\n", tenant, res)
	}
	return sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "msserve:", err)
	os.Exit(1)
}
