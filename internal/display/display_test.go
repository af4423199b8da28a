package display

import (
	"testing"

	"mst/internal/firefly"
)

func TestDisplaySerializesCommands(t *testing.T) {
	m := firefly.New(2, firefly.DefaultCosts())
	d := NewDisplay(m, true)
	for i := 0; i < 2; i++ {
		m.Start(i, func(p *firefly.Proc) {
			for k := 0; k < 20; k++ {
				d.PostText(p, "x", k, p.ID())
				p.CheckYield()
			}
		})
	}
	m.Run(nil)
	if d.CommandCount() != 40 {
		t.Fatalf("commands = %d, want 40", d.CommandCount())
	}
	// Timestamps must be non-decreasing per processor and distinct
	// overall (the lock serializes them in virtual time).
	times := map[firefly.Time]bool{}
	for _, c := range d.Commands() {
		if times[c.At] {
			t.Fatalf("two commands posted at the same instant %v", c.At)
		}
		times[c.At] = true
	}
	var contended bool
	for _, ls := range m.LockStats() {
		if ls.Name == "display" && ls.Contentions > 0 {
			contended = true
		}
	}
	if !contended {
		t.Fatal("expected display lock contention with two busy writers")
	}
}

func TestTranscriptAccumulates(t *testing.T) {
	m := firefly.New(1, firefly.DefaultCosts())
	d := NewDisplay(m, false)
	m.Start(0, func(p *firefly.Proc) {
		d.TranscriptShow(p, "hello ")
		d.TranscriptShow(p, "world")
	})
	m.Run(nil)
	if d.TranscriptText() != "hello world" {
		t.Fatalf("transcript = %q", d.TranscriptText())
	}
}

func TestSensorInjectAndTake(t *testing.T) {
	m := firefly.New(1, firefly.DefaultCosts())
	s := NewSensor(m, true)
	m.At(50, func() { s.Inject(Event{Kind: EvKey, Key: 'a'}) })
	m.At(60, func() { s.Inject(Event{Kind: EvKey, Key: 'b'}) })
	var got []rune
	m.Start(0, func(p *firefly.Proc) {
		for len(got) < 2 && p.Now() < 10000 {
			if s.HasPending() {
				if e, ok := s.Take(p); ok {
					got = append(got, e.Key)
				}
			}
			p.Advance(10)
			p.CheckYield()
		}
	})
	m.Run(nil)
	if len(got) != 2 || got[0] != 'a' || got[1] != 'b' {
		t.Fatalf("events = %v", got)
	}
}

func TestTakeOnEmptySensor(t *testing.T) {
	m := firefly.New(1, firefly.DefaultCosts())
	s := NewSensor(m, false)
	m.Start(0, func(p *firefly.Proc) {
		if _, ok := s.Take(p); ok {
			t.Error("Take on empty sensor returned an event")
		}
	})
	m.Run(nil)
}

func TestOutputQueueIsBounded(t *testing.T) {
	m := firefly.New(1, firefly.DefaultCosts())
	d := NewDisplay(m, false)
	const n = 2*maxCommands + 10
	m.Start(0, func(p *firefly.Proc) {
		for k := 0; k < n; k++ {
			d.PostText(p, "x", k, 0)
		}
	})
	m.Run(nil)
	if d.CommandCount() != n {
		t.Fatalf("CommandCount = %d, want %d: dropping old commands must not lose the count", d.CommandCount(), n)
	}
	got := d.Commands()
	if len(got) > maxCommands || len(got) < maxCommands/2 {
		t.Fatalf("queue holds %d commands, want between %d and %d", len(got), maxCommands/2, maxCommands)
	}
	for i, c := range got {
		if want := n - len(got) + i; c.X != want {
			t.Fatalf("queue[%d].X = %d, want %d: the queue must hold the latest commands in order", i, c.X, want)
		}
	}
}
