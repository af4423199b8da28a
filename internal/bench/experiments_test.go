package bench

import (
	"os"
	"strings"
	"testing"
)

// TestExperimentsIsGenerated holds EXPERIMENTS.md to msbench's printout:
// every section but jit sits between its markers exactly as msbench
// prints it from the checked-in report, and the gate holds that report
// equal to a fresh run. The jit section's host columns are in no
// report file, so it has no block.
func TestExperimentsIsGenerated(t *testing.T) {
	r, err := LoadBaseline("../../BENCH_pr10.json")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, s := range Sections {
		if s.Name == "jit" {
			continue
		}
		begin, end := "<!-- msbench "+s.Name+" -->\n```text\n", "```\n<!-- /msbench -->\n"
		want := s.Format(r)
		got, ok := "", false
		if i := strings.Index(doc, begin); i >= 0 {
			got, _, ok = strings.Cut(doc[i+len(begin):], end)
		}
		if !ok || got != want {
			t.Errorf("EXPERIMENTS.md's %s block is not msbench's printout of BENCH_pr10.json; it should read:\n%s%s%s",
				s.Name, begin, want, end)
		}
	}
}
