package image_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"testing"

	"mst/internal/bench"
	"mst/internal/bytecode"
	"mst/internal/compiler"
	"mst/internal/core"
	"mst/internal/image"
	"mst/internal/serve"
)

// compiledCorpusDigest is what TestCompiledCorpusDigest hashed when the
// rune lexer, the per-chunk file-in reader and the map-based generator
// were the compiler. A compiler change that alters one compiled byte,
// count or literal of the corpus changes it.
const compiledCorpusDigest = "ba0a6b6cd36ed647f88074ba1740ead04c3fbb0c4747d6f8c31e973802b1659e"

// TestCompiledCorpusDigest compiles every chunk of the kernel library and
// of the BusyWorker, ServeSession and macro-benchmark sources against a
// system booted with all of them, and hashes each compiler.Method: its
// selector, counts and header fields, send sites, code, literals and
// source.
func TestCompiledCorpusDigest(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.OldWords = 256 << 10
	cfg.ExtraSources = []string{serve.SessionSource, bench.MacroSource}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()

	sources := append(image.KernelSources(),
		struct{ Name, Source string }{"BusyWorker", core.BusyWorkerSource},
		struct{ Name, Source string }{"ServeSession", serve.SessionSource},
		struct{ Name, Source string }{"macro", bench.MacroSource})
	h := sha256.New()
	methods := 0
	for _, src := range sources {
		fmt.Fprintf(h, "file %s\n", src.Name)
		err := image.CompileChunks(sys.VM, src.Source, func(m *compiler.Method, err error) {
			if err != nil {
				t.Errorf("%s: %v", src.Name, err)
				return
			}
			methods++
			hashMethod(h, m)
		})
		if err != nil {
			t.Fatalf("%s: %v", src.Name, err)
		}
	}
	if methods < 500 {
		t.Fatalf("compiled only %d chunks", methods)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != compiledCorpusDigest {
		t.Errorf("%d chunks hash to %s, want %s", methods, got, compiledCorpusDigest)
	}
}

func hashMethod(w io.Writer, m *compiler.Method) {
	fmt.Fprintf(w, "method %q args %d temps %d prim %d clean %t stack %d sites %d at %v\ncode %x\n",
		m.Selector, m.NumArgs, m.NumTemps, m.Primitive, m.Clean, m.MaxStack,
		m.NumSendSites, bytecode.SendSites(m.Code), m.Code)
	for _, l := range m.Literals {
		hashLit(w, l)
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "source %q\n", m.Source)
}

func hashLit(w io.Writer, l compiler.Lit) {
	fmt.Fprintf(w, "lit %d %d %x %q %d (", l.Kind, l.Int, math.Float64bits(l.Flt), l.Str, l.Rune)
	for _, e := range l.Arr {
		hashLit(w, e)
	}
	fmt.Fprint(w, ")")
}
