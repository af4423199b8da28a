package main

import (
	"strings"
	"testing"

	"mst/internal/serve"
)

// TestServeStdinNamesTheTenant: every answer line of -stdin starts with
// the tenant its request named, so a script that feeds several tenants
// can tell whose request answered and whose failed.
func TestServeStdinNamesTheTenant(t *testing.T) {
	cp, err := serve.BootCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(serve.Config{Tenants: 2, Executors: 1, Checkpoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	for _, tc := range []struct {
		name, in string
		want     []string // each answer line's prefix, in order
	}{
		{"answer", "1\t3 + 4\n", []string{"1\t7"}},
		{"no tenant field is tenant 0", "3 + 4\n", []string{"0\t7"}},
		{"blank lines skipped", "\n0\t3 + 4\n  \n", []string{"0\t7"}},
		{"failed evaluation", "1\t3 foo\n", []string{"1\terror: interp: "}},
		{"no such tenant", "5\t3 + 4\n", []string{"5\terror: serve: no tenant 5 (have 2)"}},
		{"later lines still served", "0\t3 foo\n0\t3 + 4\n", []string{"0\terror: interp: ", "0\t7"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := serveStdin(srv, strings.NewReader(tc.in), &out); err != nil {
				t.Fatal(err)
			}
			got := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
			ok := len(got) == len(tc.want)
			for i := 0; ok && i < len(got); i++ {
				ok = strings.HasPrefix(got[i], tc.want[i])
			}
			if !ok {
				t.Errorf("%q answered %q, want lines starting %q", tc.in, got, tc.want)
			}
		})
	}
}
