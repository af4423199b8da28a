package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mst/internal/heap"
	"mst/internal/image"
	"mst/internal/interp"
)

func TestSaveAndLoadImage(t *testing.T) {
	s := newSystem(t, nil)
	// Mutate the image: a new class, a global, some state.
	if _, err := s.EvaluateRaw(
		"Object subclass: 'SnapState' instanceVariableNames: 'n' category: 'Tests'"); err != nil {
		t.Fatal(err)
	}
	if err := s.FileIn("snap.st", `!SnapState methodsFor: 'counting'!
bump
	n isNil ifTrue: [n := 0].
	n := n + 1.
	^n! !
`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EvaluateRaw("Smalltalk at: 'TheCounter' put: SnapState new"); err != nil {
		t.Fatal(err)
	}
	if n, err := s.EvaluateInt("TheCounter bump. TheCounter bump"); err != nil || n != 2 {
		t.Fatalf("bump = %d, %v", n, err)
	}

	var buf bytes.Buffer
	if err := s.SaveImage(&buf); err != nil {
		t.Fatalf("SaveImage: %v", err)
	}
	// The running system keeps working after the snapshot.
	if n, err := s.EvaluateInt("TheCounter bump"); err != nil || n != 3 {
		t.Fatalf("post-snapshot bump = %d, %v", n, err)
	}

	// Load into a fresh machine: the counter resumes from the
	// snapshotted value (2), not the later one.
	loaded, err := LoadImage(5, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadImage: %v", err)
	}
	defer loaded.Shutdown()
	if n, err := loaded.EvaluateInt("TheCounter bump"); err != nil || n != 3 {
		t.Fatalf("loaded bump = %d, %v (errors: %v)", n, err, loaded.VM.Errors())
	}
	// The whole library still works in the loaded image.
	if out, err := loaded.Evaluate("(1 to: 10) inject: 0 into: [:a :b | a + b]"); err != nil || out != "55" {
		t.Fatalf("loaded eval = %q, %v", out, err)
	}
	if out, err := loaded.Evaluate("Collection printHierarchy size > 10"); err != nil || out != "true" {
		t.Fatalf("loaded browse = %q, %v", out, err)
	}
}

func TestSnapshotFromSmalltalk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.image")
	s := newSystem(t, nil)
	if _, err := s.EvaluateRaw("Smalltalk at: 'Marker' put: 77"); err != nil {
		t.Fatal(err)
	}
	// The snapshot primitive follows the paper's activeProcess
	// protocol and the snapshotting Process continues afterwards.
	if n, err := s.EvaluateInt("Smalltalk snapshotTo: '" + path + "'. Marker + 1"); err != nil || n != 78 {
		t.Fatalf("continue after snapshot = %d, %v", n, err)
	}
	// The scheduler's activeProcess slot is empty again.
	if out, err := s.Evaluate("(Processor instVarAt: 2) isNil"); err != nil || out != "true" {
		t.Fatalf("activeProcess slot = %q, %v", out, err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := LoadImage(2, f)
	if err != nil {
		t.Fatalf("LoadImage: %v", err)
	}
	defer loaded.Shutdown()
	if n, err := loaded.EvaluateInt("Marker"); err != nil || n != 77 {
		t.Fatalf("loaded marker = %d, %v", n, err)
	}
}

func TestSnapshotPreservesBackgroundProcesses(t *testing.T) {
	s := newSystem(t, nil)
	// A background process that keeps incrementing a global counter.
	if _, err := s.EvaluateRaw("Smalltalk at: 'Ticks' put: (Array with: 0)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EvaluateRaw(
		"[[true] whileTrue: [Ticks at: 1 put: (Ticks at: 1) + 1. Processor yield]] fork"); err != nil {
		t.Fatal(err)
	}
	if n, err := s.EvaluateInt("Ticks at: 1"); err != nil || n == 0 {
		t.Fatalf("background not ticking: %d, %v", n, err)
	}
	var buf bytes.Buffer
	if err := s.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadImage(3, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Shutdown()
	// In the loaded image the background Process resumes and keeps
	// ticking.
	a, err := loaded.EvaluateInt("Ticks at: 1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.EvaluateInt("| t | t := Ticks at: 1. 1 to: 500 do: [:i | Processor yield]. Ticks at: 1")
	if err != nil {
		t.Fatal(err)
	}
	if b <= a {
		t.Fatalf("background process did not resume: %d -> %d", a, b)
	}
}

func TestLoadImageRejectsGarbage(t *testing.T) {
	if _, err := LoadImage(1, bytes.NewReader([]byte("not an image"))); err == nil {
		t.Fatal("garbage accepted as image")
	}
}

// saveImage snapshots s into a fresh buffer.
func saveImage(t *testing.T, s *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveImage(&buf); err != nil {
		t.Fatalf("SaveImage: %v", err)
	}
	return buf.Bytes()
}

// TestLoadImageValidatesLikeBoot: a load runs the configuration its
// snapshot records, so a baseline image is refused on more processors
// than NewSystem would boot it on.
func TestLoadImageValidatesLikeBoot(t *testing.T) {
	img := saveImage(t, newSystem(t, func(c *Config) { c.Mode, c.Processors = ModeBaseline, 1 }))
	if loaded, err := LoadImage(3, bytes.NewReader(img)); err == nil {
		loaded.Shutdown()
		t.Fatal("baseline image loaded on 3 processors")
	}
	loaded, err := LoadImage(1, bytes.NewReader(img))
	if err != nil {
		t.Fatalf("LoadImage(1): %v", err)
	}
	defer loaded.Shutdown()
	if loaded.Cfg.Mode != ModeBaseline {
		t.Errorf("loaded mode = %v", loaded.Cfg.Mode)
	}
	if out, err := loaded.Evaluate("(1 to: 10) inject: 0 into: [:a :b | a + b]"); err != nil || out != "55" {
		t.Fatalf("loaded eval = %q, %v", out, err)
	}
}

// imageFixed keeps the fields an image fixes: it zeroes what a System
// chooses per instance (processors, host mode, observers) and the
// boot-only ExtraSources.
func imageFixed(c Config) Config {
	c.Processors, c.Parallel = 0, false
	c.TraceEvents, c.Profile, c.Histograms, c.AllocProfile, c.Sanitize = 0, false, false, false, false
	c.ExtraSources = nil
	return c
}

// imageConfigRows are four images that between them set every
// image-fixed Config field off its default.
func imageConfigRows() []struct {
	name   string
	mutate func(*Config)
} {
	msplus := func(c *Config) {
		c.InlineCache, c.CacheWays = interp.ICPoly, 2
		c.JIT, c.ConcMark = true, true
	}
	everything := func(c *Config) {
		msplus(c)
		c.ParScavenge = true
		c.Alloc, c.FreeContexts = heap.AllocPerProcessor, interp.FreeCtxSharedLocked
		c.MethodCache, c.InlineCache = interp.CacheSharedLocked, interp.ICMono
		c.EdenWords, c.SurvivorWords, c.OldWords, c.TenureAge = 8<<10, 2<<10, 1<<20, 3
	}
	return []struct {
		name   string
		mutate func(*Config)
	}{
		{"default", nil},
		{"baseline", func(c *Config) { c.Mode, c.Processors = ModeBaseline, 1 }},
		{"msplus-jit-concmark", msplus},
		{"every image-fixed field off its default", everything},
	}
}

// TestLoadedConfigIsTheImages: the Config a clone runs (its
// checkpoint's) and the one a load derives from the snapshot agree on
// every image-fixed field, and the loaded VM runs what its Cfg states.
// A Config field that imageConfig does not derive fails here.
func TestLoadedConfigIsTheImages(t *testing.T) {
	for _, row := range imageConfigRows() {
		t.Run(row.name, func(t *testing.T) {
			s := newSystem(t, row.mutate)
			cp, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			want := imageFixed(s.Cfg)
			if got := imageFixed(imageConfig(cp.state)); !reflect.DeepEqual(got, want) {
				t.Fatalf("imageConfig = %+v\nwant         %+v", got, want)
			}
			loaded, err := LoadImage(1, bytes.NewReader(saveImage(t, s)))
			if err != nil {
				t.Fatalf("LoadImage: %v", err)
			}
			defer loaded.Shutdown()
			if got := imageFixed(loaded.Cfg); !reflect.DeepEqual(got, want) {
				t.Fatalf("loaded Cfg = %+v\nwant        %+v", got, want)
			}
			if loaded.VM.Cfg != s.VM.Cfg || loaded.VM.H.Config() != s.VM.H.Config() {
				t.Fatalf("loaded VM runs %+v over heap %+v, saved one %+v over %+v",
					loaded.VM.Cfg, loaded.VM.H.Config(), s.VM.Cfg, s.VM.H.Config())
			}
			if n, err := loaded.EvaluateInt("(1 to: 10) inject: 0 into: [:a :b | a + b]"); err != nil || n != 55 {
				t.Fatalf("loaded eval = %d, %v", n, err)
			}
		})
	}
}

// TestCheckpointHoldsNoYoungObjects: a checkpoint of a system with live
// young objects tenures them first, so the image it captures, and the
// one SaveImage writes, has an empty eden and past-survivor space; the
// base system keeps answering afterwards.
func TestCheckpointHoldsNoYoungObjects(t *testing.T) {
	for _, row := range imageConfigRows() {
		t.Run(row.name, func(t *testing.T) {
			s := newSystem(t, row.mutate)
			if _, err := s.EvaluateRaw("Smalltalk at: 'Young' put: ((1 to: 300) collect: [:i | Array new: (i rem: 7)])"); err != nil {
				t.Fatal(err)
			}
			if h := s.Stats().Heap; h.EdenWordsInUse == 0 {
				t.Fatal("no young objects before the checkpoint")
			}
			cp, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if h := cp.state.Heap; len(h.EdenUsed) != 0 || len(h.PastUsed) != 0 {
				t.Fatalf("checkpoint holds %d eden and %d past-survivor words", len(h.EdenUsed), len(h.PastUsed))
			}
			if n, err := s.EvaluateInt("(Young at: 300) size + Young size"); err != nil || n != 306 {
				t.Fatalf("base after the checkpoint = %d, %v", n, err)
			}
			img := saveImage(t, s)
			st, err := image.DecodeState(bytes.NewReader(img))
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Heap.EdenUsed) != 0 || len(st.Heap.PastUsed) != 0 {
				t.Fatalf("saved image holds %d eden and %d past-survivor words", len(st.Heap.EdenUsed), len(st.Heap.PastUsed))
			}
			loaded, err := LoadImage(1, bytes.NewReader(img))
			if err != nil {
				t.Fatalf("LoadImage: %v", err)
			}
			defer loaded.Shutdown()
			if h := loaded.Stats().Heap; h.EdenWordsInUse != 0 {
				t.Fatalf("loaded image starts with %d eden words", h.EdenWordsInUse)
			}
			if n, err := loaded.EvaluateInt("(Young at: 300) size + Young size"); err != nil || n != 306 {
				t.Fatalf("loaded = %d, %v", n, err)
			}
		})
	}
}

// TestCloneInternsItsSymbols: a clone's symbol index, rebuilt from the
// checkpoint's symbol list, answers every name with that very symbol,
// without allocating in the heap or in Go.
func TestCloneInternsItsSymbols(t *testing.T) {
	cp, err := newSystem(t, func(c *Config) { c.Processors = 1 }).Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	clone, err := NewFromCheckpoint(1, cp)
	if err != nil {
		t.Fatal(err)
	}
	defer clone.Shutdown()
	syms := clone.VM.SnapshotTables().SymbolList
	names := make([]string, len(syms))
	for i, sym := range syms {
		names[i] = clone.VM.SymbolName(sym)
	}
	heapAllocs := clone.Stats().Heap.Allocations
	goAllocs := testing.AllocsPerRun(10, func() {
		for i, name := range names {
			if got := clone.VM.InternSymbol(nil, name); got != syms[i] {
				t.Fatalf("InternSymbol(%q) = %v, the clone's symbol %d is %v", name, got, i, syms[i])
			}
		}
	})
	if goAllocs != 0 || clone.Stats().Heap.Allocations != heapAllocs {
		t.Fatalf("interning %d known names: %.0f Go allocations, %d heap allocations",
			len(names), goAllocs, clone.Stats().Heap.Allocations-heapAllocs)
	}
}

// TestCloneKeepsObservers: a clone runs its checkpoint's Config, so a
// base booted with the recorder and the histograms gives every clone
// both.
func TestCloneKeepsObservers(t *testing.T) {
	s := newSystem(t, func(c *Config) {
		c.Processors = 1
		c.TraceEvents, c.Histograms = 1<<12, true
	})
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	clone, err := NewFromCheckpoint(1, cp)
	if err != nil {
		t.Fatal(err)
	}
	defer clone.Shutdown()
	if clone.VM.M.Recorder() == nil || clone.VM.M.LatencyHists() == nil {
		t.Fatalf("clone of an observed base: recorder %v, histograms %v",
			clone.VM.M.Recorder() != nil, clone.VM.M.LatencyHists() != nil)
	}
	if _, err := clone.EvaluateInt("3 + 4"); err != nil {
		t.Fatal(err)
	}
	if mt := clone.Metrics(); mt.Trace.Events == 0 || mt.Latency == nil {
		t.Fatalf("clone observed nothing: %d events, latency %v", mt.Trace.Events, mt.Latency != nil)
	}
}

// TestImageRecordsNoHostMode: an image saved or checkpointed from a
// parallel system restores deterministic, in every layer.
func TestImageRecordsNoHostMode(t *testing.T) {
	s := newSystem(t, func(c *Config) {
		c.Processors = 2
		c.Parallel = true
	})
	if _, err := s.EvaluateRaw("Smalltalk at: 'Marker' put: 77"); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadImage(2, bytes.NewReader(saveImage(t, s)))
	if err != nil {
		t.Fatalf("LoadImage: %v", err)
	}
	defer loaded.Shutdown()
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	clone, err := NewFromCheckpoint(1, cp)
	if err != nil {
		t.Fatal(err)
	}
	defer clone.Shutdown()
	for name, r := range map[string]*System{"loaded": loaded, "clone": clone} {
		if r.Cfg.Parallel || r.VM.Cfg.Parallel || r.VM.H.Config().Parallel {
			t.Errorf("%s: Cfg.Parallel=%v VM.Cfg.Parallel=%v heap Parallel=%v", name,
				r.Cfg.Parallel, r.VM.Cfg.Parallel, r.VM.H.Config().Parallel)
		}
		if n, err := r.EvaluateInt("Marker"); err != nil || n != 77 {
			t.Errorf("%s marker = %d, %v", name, n, err)
		}
	}
}
