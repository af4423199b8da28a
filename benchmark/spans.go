package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval of the harness's own making: a call into a
// layer, or a grouping of such calls. Spans stay in memory until the
// run ends. Spans inside the program under test are a later change
// (ROADMAP item 2); these are recorded around the calls from outside.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"` // since the tracer's epoch
	EndNs    int64  `json:"end_ns"`
}

// tracer records spans. A nil *tracer is the untraced run: every
// method is a no-op, so call sites need no guards.
type tracer struct {
	epoch    time.Time
	workload string
	spans    []span
	open     []int // stack of open span IDs
	paused   bool
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload}
}

// begin opens a span under the innermost open one and returns its ID
// (0 when tracing is off or paused).
func (t *tracer) begin(name string) int {
	if t == nil || t.paused {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload,
		StartNs: int64(time.Since(t.epoch)),
	})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("benchmark: span %d closed out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id-1].EndNs = int64(time.Since(t.epoch))
}

// pause suspends fine-grained recording: until resume, begin records
// nothing. The traced run alternates paused and unpaused passes to
// price the tracing itself.
func (t *tracer) pause() {
	if t != nil {
		t.paused = true
	}
}

func (t *tracer) resume() {
	if t != nil {
		t.paused = false
	}
}

// selfNs returns each span's self time: its duration minus the part of
// it its children cover.
func selfNs(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.EndNs - s.StartNs
		if s.Parent != 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing and ui.perfetto.dev both load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes spans as Chrome trace-event JSON, one track
// (tid) per workload in order of first appearance.
func writeChromeTrace(path string, spans []span) error {
	self := selfNs(spans)
	tids := map[string]int{}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		tid, ok := tids[s.Workload]
		if !ok {
			tid = len(tids) + 1
			tids[s.Workload] = tid
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.StartNs) / 1e3,
			Dur: float64(s.EndNs-s.StartNs) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "workload": s.Workload,
				"self_us": float64(self[s.ID]) / 1e3,
			},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
