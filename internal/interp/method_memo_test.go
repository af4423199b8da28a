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
// serve checkpoint twice: cold, with the process-wide method memo
// emptied, then warm. The warm boot compiles nothing, and the two boots
// leave the same image bytes, counters and virtual clock: a memo hit
// skips host work only.
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
			var snaps [2]bootSnapshot
			var misses [2]int
			for i := range snaps {
				before := interp.MethodMemoMisses()
				sys, err := b.run()
				if err != nil {
					t.Fatal(err)
				}
				misses[i] = interp.MethodMemoMisses() - before
				snaps[i] = snapshotOf(t, sys)
				sys.Shutdown()
			}
			if misses[0] == 0 || misses[1] != 0 {
				t.Fatalf("cold boot compiled %d methods, warm boot %d; want some, then none", misses[0], misses[1])
			}
			t.Logf("cold boot compiled %d methods", misses[0])
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
// checkpoint at once, first into an empty method memo (every one misses,
// racing to fill it) and then warm, and each then compiles methods into
// its own clone through compile:classified: — one source all four share,
// one source of its own. Every boot leaves the same image, and every
// compiled method answers what its own source says.
func TestMethodMemoConcurrentBoots(t *testing.T) {
	interp.DropMethodMemo()
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
