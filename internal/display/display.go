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
	"mst/internal/firefly"
	"mst/internal/sanitize"
	"mst/internal/trace"
)

// Command is one display output command, as Commands reports it.
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
	lock *firefly.Spinlock

	// The output queue is a ring of the latest maxCommands commands: post
	// k lives in cmds[k%maxCommands], its text in text[off:off+n]. The
	// texts sit in cmds order in one arena that post reuses (see
	// placeText), so a steady poster allocates nothing.
	cmds      []queued
	text      []byte
	textBytes int // bytes of the live commands' texts
	posted    int // all ever posted

	// transcript holds the latest MaxTranscript bytes shown; once full it
	// is a ring whose oldest byte is at transcriptAt.
	transcript   []byte
	transcriptAt int

	width  int
	height int

	// san is the machine's invariant checker (nil when sanitizing is
	// off), cached like the heap's. Holding it as a field is also what
	// makes this package import sanitize directly, without which the
	// compiler cannot inline the hook wrappers here.
	san *sanitize.Checker
}

// queued is one command in the ring, its text in the arena.
type queued struct {
	off, n int
	x, y   int
	at     firefly.Time
}

// maxCommands bounds the output queue, so Processes that post for hours
// do not grow the host heap: post overwrites the oldest command.
const maxCommands = 4096

// MaxTranscript bounds the Transcript the same way: it keeps the latest
// MaxTranscript bytes shown, so a long-lived tenant whose requests keep
// reporting errors does not grow the host heap.
const MaxTranscript = 64 << 10

func (d *Display) post(p *firefly.Proc, text []byte, x, y int) {
	slot := d.posted % maxCommands
	if d.posted >= maxCommands {
		d.textBytes -= d.cmds[slot].n // the command post overwrites
	}
	c := queued{off: d.placeText(len(text)), n: len(text), x: x, y: y, at: p.Now()}
	d.text = append(d.text, text...)
	d.textBytes += len(text)
	if slot == len(d.cmds) {
		d.cmds = append(d.cmds, c)
	} else {
		d.cmds[slot] = c
	}
	d.posted++
	p.Machine().Recorder().Emit(trace.KDisplayOp, p.ID(), int64(p.Now()), int64(d.posted), 0, "")
}

// placeText makes room for n more bytes at the end of the arena and
// answers where they go. A full arena is compacted: the live texts (all
// but the command being overwritten) move down over the dead ones, in
// place when they fill at most half of it and into an arena twice their
// size otherwise, so compaction costs O(1) per byte posted.
func (d *Display) placeText(n int) int {
	if len(d.text)+n <= cap(d.text) {
		return len(d.text)
	}
	need := d.textBytes + n
	dst := d.text[:0]
	if 2*need > cap(d.text) {
		dst = make([]byte, 0, max(2*need, 1024))
	}
	for k := max(0, d.posted-maxCommands+1); k < d.posted; k++ {
		c := &d.cmds[k%maxCommands]
		off := len(dst)
		dst = append(dst, d.text[c.off:c.off+c.n]...) // moves down: copy is a memmove
		c.off = off
	}
	d.text = dst
	return len(d.text)
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
// under the display lock and charged as one display operation. The
// queue copies text: the caller may reuse it.
func (d *Display) PostText(p *firefly.Proc, text []byte, x, y int) {
	d.lock.Acquire(p)
	d.san.OnAccess(p.ID(), int64(p.Now()), "display-queue")
	p.Advance(p.Machine().Costs().DisplayOp)
	d.post(p, text, x, y)
	d.lock.Release(p)
}

// TranscriptShow appends text to the Transcript, through the same
// serialized output queue. Both copy text: the caller may reuse it.
func (d *Display) TranscriptShow(p *firefly.Proc, text []byte) {
	d.lock.Acquire(p)
	d.san.OnAccess(p.ID(), int64(p.Now()), "display-queue")
	p.Advance(p.Machine().Costs().DisplayOp)
	d.show(text)
	d.post(p, text, -1, -1)
	d.lock.Release(p)
}

// show appends text to the Transcript ring.
func (d *Display) show(text []byte) {
	if len(text) > MaxTranscript {
		text = text[len(text)-MaxTranscript:]
	}
	if room := MaxTranscript - len(d.transcript); room > 0 {
		n := min(room, len(text))
		d.transcript = append(d.transcript, text[:n]...)
		text = text[n:]
	}
	for len(text) > 0 {
		n := copy(d.transcript[d.transcriptAt:], text)
		text = text[n:]
		d.transcriptAt = (d.transcriptAt + n) % MaxTranscript
	}
}

// Commands returns the latest commands posted, at most maxCommands,
// oldest first. It builds each command's Text string on every call.
func (d *Display) Commands() []Command {
	first := max(0, d.posted-maxCommands)
	out := make([]Command, 0, d.posted-first)
	for k := first; k < d.posted; k++ {
		c := d.cmds[k%maxCommands]
		out = append(out, Command{Text: string(d.text[c.off : c.off+c.n]), X: c.x, Y: c.y, At: c.at})
	}
	return out
}

// CommandCount returns the number of commands posted so far.
func (d *Display) CommandCount() int { return d.posted }

// TranscriptText returns the latest MaxTranscript bytes shown on the
// Transcript (all of it, until that much has been shown). The cut may
// fall inside a UTF-8 sequence.
func (d *Display) TranscriptText() string {
	return string(d.transcript[d.transcriptAt:]) + string(d.transcript[:d.transcriptAt])
}

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
