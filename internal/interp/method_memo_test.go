package interp_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mst/internal/bench"
	"mst/internal/core"
	"mst/internal/interp"
	"mst/internal/serve"
)

// bootSnapshot is what a boot left behind: its image bytes, counters and
// virtual clock.
type bootSnapshot struct {
	image []byte
	stats core.Stats
	clock int64
}

func snapshotOf(t *testing.T, sys *core.System) bootSnapshot {
	t.Helper()
	var img bytes.Buffer
	if err := sys.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	return bootSnapshot{img.Bytes(), sys.Stats(), int64(sys.VirtualTime())}
}

// TestMethodMemoColdWarmTwin boots each of Table 2's four states and the
// serve checkpoint twice: cold, with the process-wide method memo and
// file-in plans emptied, then warm. The warm boot compiles nothing and
// reads no source (so lexes and parses no chunk), and the two boots
// leave the same image bytes, counters and virtual clock: a memo or plan
// hit skips host work only.
func TestMethodMemoColdWarmTwin(t *testing.T) {
	type boot struct {
		name string
		run  func() (*core.System, error)
	}
	var boots []boot
	for _, st := range bench.StandardStates() {
		boots = append(boots, boot{st.Name, func() (*core.System, error) { return bench.NewBenchSystem(st) }})
	}
	boots = append(boots, boot{"serve checkpoint", func() (*core.System, error) {
		cp, err := serve.BootCheckpoint()
		if err != nil {
			return nil, err
		}
		return core.NewFromCheckpoint(1, cp)
	}})
	for _, b := range boots {
		t.Run(b.name, func(t *testing.T) {
			interp.DropMethodMemo()
			interp.DropFileInPlans()
			var snaps [2]bootSnapshot
			var misses, reads [2]int
			for i := range snaps {
				before, readBefore := interp.MethodMemoMisses(), interp.FileInPlanReads()
				sys, err := b.run()
				if err != nil {
					t.Fatal(err)
				}
				misses[i] = interp.MethodMemoMisses() - before
				reads[i] = interp.FileInPlanReads() - readBefore
				snaps[i] = snapshotOf(t, sys)
				sys.Shutdown()
			}
			if misses[0] == 0 || misses[1] != 0 {
				t.Fatalf("cold boot compiled %d methods, warm boot %d; want some, then none", misses[0], misses[1])
			}
			if reads[0] == 0 || reads[1] != 0 {
				t.Fatalf("cold boot read %d sources, warm boot %d; want some, then none", reads[0], reads[1])
			}
			t.Logf("cold boot compiled %d methods from %d sources", misses[0], reads[0])
			cold, warm := snaps[0], snaps[1]
			if cold.clock != warm.clock {
				t.Errorf("virtual clock: cold %d, warm %d", cold.clock, warm.clock)
			}
			if !reflect.DeepEqual(cold.stats, warm.stats) {
				t.Errorf("counters differ:\ncold %+v\nwarm %+v", cold.stats, warm.stats)
			}
			if !bytes.Equal(cold.image, warm.image) {
				t.Errorf("images differ (%d and %d bytes)", len(cold.image), len(warm.image))
			}
		})
	}
}

// TestMethodMemoConcurrentBoots: four goroutines boot the serve
// checkpoint at once, first into an empty method memo and no file-in
// plans (every one misses, racing to fill them) and then warm, and each then compiles methods into
// its own clone through compile:classified: — one source all four share,
// one source of its own. Every boot leaves the same image, and every
// compiled method answers what its own source says.
func TestMethodMemoConcurrentBoots(t *testing.T) {
	interp.DropMethodMemo()
	interp.DropFileInPlans()
	const workers = 4
	var want []byte
	for round := 0; round < 2; round++ {
		images := make([][]byte, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cp, err := serve.BootCheckpoint()
				if err != nil {
					t.Error(err)
					return
				}
				sys, err := core.NewFromCheckpoint(1, cp)
				if err != nil {
					t.Error(err)
					return
				}
				defer sys.Shutdown()
				var img bytes.Buffer
				if err := sys.SaveImage(&img); err != nil {
					t.Error(err)
					return
				}
				images[w] = img.Bytes()
				src := fmt.Sprintf("ServeSession compile: 'twice ^hits * 2' classified: 'memo'. "+
					"ServeSession compile: 'own ^%d' classified: 'memo'. "+
					"Session bump; bump. Session twice * 100 + Session own", w)
				if got, err := sys.EvaluateInt(src); err != nil || got != int64(400+w) {
					t.Errorf("round %d, worker %d: %d, %v; want %d", round, w, got, err, 400+w)
				}
			}()
		}
		wg.Wait()
		for w, img := range images {
			if want == nil {
				want = img
			}
			if !bytes.Equal(img, want) {
				t.Fatalf("round %d, worker %d: image differs (%d and %d bytes)", round, w, len(img), len(want))
			}
		}
	}
}

// TestFileInPlanErrorTwin files each broken source in twice, cold (its
// plan not yet read) and then warm: both times the error names the file
// once and the line where the chunk at fault starts (the header's, the
// method's or the expression's, past the blank lines before it). The
// header and expression errors are the text's own and come from the
// plan; the unknown class, the method that does not compile and the doIt
// that does not compile or fails come from the image at replay.
func TestFileInPlanErrorTwin(t *testing.T) {
	sys, err := core.NewSystem(core.BaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	const prefix = "\"Two chunks first.\"\n3 + 4!\n\n4 + 5!\n\n"
	for _, c := range []struct{ name, source, want string }{
		{"unknown class", prefix + "!NoSuchClass methodsFor: 'twin'!\ntwinA ^1! !\n",
			`broken.st:6: unknown class "NoSuchClass"`},
		{"malformed header", prefix + "!Object methodsFor 'twin'!\ntwinA ^1! !\n",
			"broken.st:6: expected `Class methodsFor: 'category'`, got \"Object methodsFor 'twin'\""},
		{"unterminated methodsFor", prefix + "!Object methodsFor: 'twin'!\ntwinA ^1!\n\ntwinB ^2!",
			`broken.st:6: unterminated methodsFor: "Object methodsFor: 'twin'"`},
		{"method does not compile", prefix + "!Object methodsFor: 'twin'!\ntwinC ^3!\n\ntwinD ^^^! !",
			`broken.st:9: 1:8: expected expression, found "^"`},
		{"expression does not parse", prefix + "3 + + 4!",
			`broken.st:6: 1:5: expected expression, found "+"`},
		{"doIt does not compile", prefix + "x foo!",
			`broken.st:6: compile DoIt: 1:1: undeclared variable "x"`},
		{"doIt fails", prefix + "3 twinFoo!",
			"broken.st:6: interp: process terminated by VM error: doesNotUnderstand: #twinFoo sent to 3; " +
				"Smalltalk error: does not understand twinFoo"},
	} {
		t.Run(c.name, func(t *testing.T) {
			interp.DropFileInPlans()
			for i, when := range []string{"cold", "warm"} {
				before := interp.FileInPlanReads()
				err := sys.FileIn("broken.st", c.source)
				if err == nil || err.Error() != c.want {
					t.Errorf("%s: %v\nwant %s", when, err, c.want)
				}
				if reads := interp.FileInPlanReads() - before; reads != 1-i {
					t.Errorf("%s: read the source %d times, want %d", when, reads, 1-i)
				}
			}
		})
	}
}
