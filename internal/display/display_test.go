package display

import (
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mst/internal/firefly"
)

func TestDisplaySerializesCommands(t *testing.T) {
	m := firefly.New(2, firefly.DefaultCosts())
	d := NewDisplay(m, true)
	for i := 0; i < 2; i++ {
		m.Start(i, func(p *firefly.Proc) {
			for k := 0; k < 20; k++ {
				d.PostText(p, []byte("x"), k, p.ID())
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
		d.TranscriptShow(p, []byte("hello "))
		d.TranscriptShow(p, []byte("world"))
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

// TestOutputQueueIsBounded posts a seeded stream of texts (empty ones,
// UTF-8 ones, up to 40 bytes) and Transcript shows from one reused
// buffer, and holds the queue to a reference model after every few
// posts: Commands is the latest maxCommands commands in order,
// CommandCount counts every post, and TranscriptText is the latest
// MaxTranscript bytes shown. Once the arena and the Transcript are warm
// a post allocates nothing.
func TestOutputQueueIsBounded(t *testing.T) {
	m := firefly.New(1, firefly.DefaultCosts())
	d := NewDisplay(m, false)
	rng := rand.New(rand.NewPCG(1988, 44))
	pieces := []string{"a", "Z", " ", "0", "é", "→", "𝄞", "\n"}
	var (
		buf        []byte // reused: the display must copy
		model      []Command
		transcript []byte
	)
	post := func(p *firefly.Proc) {
		buf = buf[:0]
		for n := rng.IntN(41); ; {
			piece := pieces[rng.IntN(len(pieces))]
			if len(buf)+len(piece) > n {
				break
			}
			buf = append(buf, piece...)
		}
		if rng.IntN(4) == 0 {
			d.TranscriptShow(p, buf)
			model = append(model, Command{Text: string(buf), X: -1, Y: -1, At: p.Now()})
			transcript = append(transcript, buf...)
		} else {
			x, y := rng.IntN(80), rng.IntN(24)
			d.PostText(p, buf, x, y)
			model = append(model, Command{Text: string(buf), X: x, Y: y, At: p.Now()})
		}
		clear(buf[:cap(buf)])
	}
	// check runs on the processor's coroutine, so it reports with Errorf
	// and answers whether to go on.
	check := func() bool {
		t.Helper()
		if d.CommandCount() != len(model) {
			t.Errorf("CommandCount = %d, want %d: dropping old commands must not lose the count", d.CommandCount(), len(model))
			return false
		}
		if want := model[max(0, len(model)-maxCommands):]; !slices.Equal(d.Commands(), want) {
			t.Errorf("after %d posts the queue is not the latest %d commands in order", len(model), len(want))
			return false
		}
		if want := transcript[max(0, len(transcript)-MaxTranscript):]; d.TranscriptText() != string(want) {
			t.Errorf("after %d posts TranscriptText is not the latest %d bytes shown", len(model), len(want))
			return false
		}
		return true
	}
	var mallocs uint64
	m.Start(0, func(p *firefly.Proc) {
		for k := 0; k < 20000; k++ {
			post(p)
			if (k%997 == 0 || k > 20000-5) && !check() {
				return
			}
		}
		// Warm: a queue of full-length texts is the largest the arena
		// must hold, and the Transcript is full.
		long := []byte(strings.Repeat("x", 40))
		for k := 0; k < 2*maxCommands; k++ {
			d.TranscriptShow(p, long)
		}
		// The fewest of three rounds counts: a Go GC cycle may allocate.
		mallocs = math.MaxUint64
		for range 3 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for k := 0; k < maxCommands; k++ {
				x, y := rng.IntN(80), rng.IntN(24)
				d.PostText(p, long[:rng.IntN(41)], x, y)
				d.TranscriptShow(p, long[:rng.IntN(41)])
			}
			runtime.ReadMemStats(&m1)
			mallocs = min(mallocs, m1.Mallocs-m0.Mallocs)
		}
	})
	m.Run(nil)
	if mallocs != 0 {
		t.Errorf("%d Go allocations in %d posts to a warm queue, want 0", mallocs, 2*maxCommands)
	}
}
