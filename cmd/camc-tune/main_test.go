package main

// CLI tests for camc-tune: flag validation exits 2 with an actionable
// hint (never panics, never silently no-ops), a one-shot tune prints
// the dispatch tables, and -store lands the tuned-table cells in the
// results store.

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"camc/internal/store"
)

func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		hint string // substring stderr must contain
	}{
		{"bad_arch", []string{"-arch", "sparc"}, "-arch knl, broadwell, or power8"},
		{"negative_ambient", []string{"-ambient", "-3"}, "-ambient"},
		{"negative_procs", []string{"-arch", "knl", "-procs", "-3"}, "-procs -3 outside 0..272"},
		{"procs_above_threads", []string{"-arch", "power8", "-procs", "161"}, "-procs 161 outside 0..160"},
		{"procs_above_any_arch", []string{"-procs", "100"}, "-procs 100 outside 0..28, the broadwell"},
		{"serve_with_store", []string{"-serve", "-store", "x.store"}, "-serve and -store are exclusive"},
		{"positional_arg", []string{"knl"}, "flags only"},
		{"undefined_flag", []string{"-frobnicate"}, "flag provided but not defined"},
		{"bad_sizes", []string{"-sizes", "4K,banana"}, "usage: -sizes"},
		{"descending_sizes", []string{"-sizes", "64K,4K"}, "ascending"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != 2 {
				t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.hint) {
				t.Fatalf("stderr missing hint %q:\n%s", tc.hint, stderr.String())
			}
		})
	}
}

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("512,4K,1M")
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{512, 4 << 10, 1 << 20}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("parseSizes = %v, want %v", got, want)
		}
	}
	if s, err := parseSizes(""); s != nil || err != nil {
		t.Fatalf("empty -sizes should mean tuner default, got %v, %v", s, err)
	}
}

// TestTunePrintsTable pins the one-shot mode: a small ladder on one
// architecture prints a dispatch table covering every collective kind.
func TestTunePrintsTable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-arch", "knl", "-sizes", "4K,64K"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "tuning table for knl") {
		t.Fatalf("missing table header:\n%s", out)
	}
	for _, kind := range []string{"scatter:", "gather:", "bcast:", "allgather:", "alltoall:", "reduce:"} {
		if !strings.Contains(out, kind) {
			t.Fatalf("table missing %s section:\n%s", kind, out)
		}
	}
}

// TestStoreRecordsCells runs a small tune with -store and verifies the
// run and per-bucket cells land in the store, tagged with arch and
// collective — and that stdout is byte-identical to a storeless run.
func TestStoreRecordsCells(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tune.store")
	args := []string{"-arch", "knl", "-sizes", "4K,64K", "-ambient", "8"}
	var plain, stored, stderr bytes.Buffer
	if code := run(args, &plain, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	stderr.Reset()
	if code := run(append(args, "-store", dir), &stored, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if plain.String() != stored.String() {
		t.Fatal("-store changed the printed tuning table")
	}
	if !strings.Contains(stderr.String(), "store: appended") {
		t.Fatalf("missing store summary on stderr: %s", stderr.String())
	}

	st, err := store.Open(dir, store.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	runs := st.Runs()
	if len(runs) != 1 || runs[0].Source != "tune" {
		t.Fatalf("runs = %+v, want one tune run", runs)
	}
	cells, err := st.Select(store.Filter{Type: store.TypeCell})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatal("no cell records stored")
	}
	kinds := map[string]bool{}
	for _, c := range cells {
		if c.RunID != runs[0].RunID || c.Experiment != "tune" {
			t.Fatalf("stray cell %+v", c)
		}
		if c.Arch != "knl" || c.Series == "" || c.Unit != "us" {
			t.Fatalf("cell missing tags: %+v", c)
		}
		if c.Value <= 0 || c.Size <= 0 {
			t.Fatalf("non-positive cell measurement: %+v", c)
		}
		if !strings.Contains(c.Table, "ambient=8") {
			t.Fatalf("cell title missing the tuned ambient: %+v", c)
		}
		kinds[c.Collective] = true
	}
	for _, k := range []string{"scatter", "gather", "bcast", "allgather", "alltoall", "reduce"} {
		if !kinds[k] {
			t.Fatalf("no cells for %s (have %v)", k, kinds)
		}
	}
}
