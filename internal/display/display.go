// Package display simulates the MS I/O subsystem: a display with a
// serialized output command queue and an input sensor whose events are
// transferred from the device by the interpreters. Both directions
// follow the paper's serialization strategy: "the interpreter places
// input events on a queue which is shared (potentially) by several
// processes. There is also an output queue associated with the display
// controller... access to the shared resource is for very brief
// intervals."
package display

import (
	"strings"

	"mst/internal/firefly"
	"mst/internal/sanitize"
	"mst/internal/trace"
)

// Command is one display output command.
type Command struct {
	Text string
	X, Y int
	At   firefly.Time
}

// EventKind classifies input events.
type EventKind int

const (
	// EvKey is a keystroke.
	EvKey EventKind = iota
	// EvMouse is a pointer event.
	EvMouse
)

// Event is one input event.
type Event struct {
	Kind EventKind
	Key  rune
	X, Y int
	At   firefly.Time
}

// Display is the virtual display controller plus the Transcript sink.
type Display struct {
	lock       *firefly.Spinlock
	commands   []Command // the latest, at most maxCommands
	posted     int       // all ever posted
	transcript strings.Builder
	width      int
	height     int

	// san is the machine's invariant checker (nil when sanitizing is
	// off), cached like the heap's. Holding it as a field is also what
	// makes this package import sanitize directly, without which the
	// compiler cannot inline the hook wrappers here.
	san *sanitize.Checker
}

// maxCommands bounds the output queue, so Processes that post for hours
// do not grow the host heap. post drops the older half of a full queue.
const maxCommands = 4096

func (d *Display) post(p *firefly.Proc, c Command) {
	if len(d.commands) == maxCommands {
		d.commands = d.commands[:copy(d.commands, d.commands[maxCommands/2:])]
	}
	d.commands = append(d.commands, c)
	d.posted++
	p.Machine().Recorder().Emit(trace.KDisplayOp, p.ID(), int64(p.Now()), int64(d.posted), 0, "")
}

// NewDisplay creates a display on machine m. locksEnabled selects MS
// mode; the baseline system runs without the output-queue lock.
func NewDisplay(m *firefly.Machine, locksEnabled bool) *Display {
	m.Sanitizer().RegisterGuard("display-queue", "display")
	return &Display{
		lock:   m.NewSpinlock("display", locksEnabled),
		san:    m.Sanitizer(),
		width:  80,
		height: 24,
	}
}

// Width returns the display width in character cells.
func (d *Display) Width() int { return d.width }

// Height returns the display height in character cells.
func (d *Display) Height() int { return d.height }

// PostText places a draw-text command on the output queue, serialized
// under the display lock and charged as one display operation.
func (d *Display) PostText(p *firefly.Proc, text string, x, y int) {
	d.lock.Acquire(p)
	d.san.OnAccess(p.ID(), int64(p.Now()), "display-queue")
	p.Advance(p.Machine().Costs().DisplayOp)
	d.post(p, Command{Text: text, X: x, Y: y, At: p.Now()})
	d.lock.Release(p)
}

// TranscriptShow appends text to the Transcript, through the same
// serialized output queue.
func (d *Display) TranscriptShow(p *firefly.Proc, text string) {
	d.lock.Acquire(p)
	d.san.OnAccess(p.ID(), int64(p.Now()), "display-queue")
	p.Advance(p.Machine().Costs().DisplayOp)
	d.transcript.WriteString(text)
	d.post(p, Command{Text: text, X: -1, Y: -1, At: p.Now()})
	d.lock.Release(p)
}

// Commands returns the latest commands posted, at most maxCommands.
func (d *Display) Commands() []Command { return d.commands }

// CommandCount returns the number of commands posted so far.
func (d *Display) CommandCount() int { return d.posted }

// TranscriptText returns everything shown on the Transcript.
func (d *Display) TranscriptText() string { return d.transcript.String() }

// Sensor is the input device. Injection happens at the device level (from
// machine event callbacks, no virtual processor); interpreters transfer
// events out under the input lock.
type Sensor struct {
	lock    *firefly.Spinlock
	san     *sanitize.Checker
	pending []Event
}

// NewSensor creates a sensor on machine m.
func NewSensor(m *firefly.Machine, locksEnabled bool) *Sensor {
	m.Sanitizer().RegisterGuard("input-queue", "input")
	return &Sensor{lock: m.NewSpinlock("input", locksEnabled), san: m.Sanitizer()}
}

// Inject adds a device-level event; called from Machine.At callbacks.
func (s *Sensor) Inject(e Event) { s.pending = append(s.pending, e) }

// HasPending reports whether any event is waiting (an unsynchronized
// peek, as a polling interpreter would perform).
func (s *Sensor) HasPending() bool { return len(s.pending) > 0 }

// Take removes and returns the oldest event under the input lock,
// charging one input operation. ok is false when no event is pending.
func (s *Sensor) Take(p *firefly.Proc) (e Event, ok bool) {
	s.lock.Acquire(p)
	s.san.OnAccess(p.ID(), int64(p.Now()), "input-queue")
	if len(s.pending) > 0 {
		e = s.pending[0]
		copy(s.pending, s.pending[1:])
		s.pending = s.pending[:len(s.pending)-1]
		ok = true
		p.Advance(p.Machine().Costs().InputOp)
		p.Machine().Recorder().Emit(trace.KInputOp, p.ID(), int64(p.Now()), int64(len(s.pending)), 0, "")
	}
	s.lock.Release(p)
	return e, ok
}
