package main

// Golden-file tests pin the exact text tables camc-bench prints — the
// experiment output is deterministic by design (virtual time, seeded
// fault plans, order-independent parallel cells), so any byte of drift
// is a real behaviour change. Regenerate after an intentional change
// with:
//
//	go test ./cmd/camc-bench -run TestGolden -update

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"camc/internal/store"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// goldenCases keeps to quick/static experiments so the tier-1 suite
// stays fast: the x8 robustness sweep (with an explicit -j to prove the
// output is identical under parallel cell evaluation), the static tab5
// hardware table, and the fig5 contention-factor fit.
var goldenCases = []struct {
	name string
	args []string
}{
	{"x8_quick", []string{"-run", "x8", "-quick", "-j", "3"}},
	{"x9_quick", []string{"-run", "x9", "-quick", "-j", "3"}},
	{"x11_quick", []string{"-run", "x11", "-quick", "-j", "3"}},
	{"x12_quick", []string{"-run", "x12", "-quick", "-j", "3"}},
	{"x13_quick", []string{"-run", "x13", "-quick", "-j", "3"}},
	{"tab5", []string{"-run", "tab5"}},
	{"fig5_quick", []string{"-run", "fig5", "-quick"}},
}

func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr.String())
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Fatalf("output differs from %s (rerun with -update if intentional)\n--- got ---\n%s", path, stdout.String())
			}
		})
	}
}

// TestGoldenJobsInvariance reruns the x8 and x12 goldens sequentially:
// the same bytes must come out at -j 1 as at -j 3 — the user-visible
// face of per-cell fault-plan isolation (x8) and of the traced
// re-election cycle being a pure function of each cell's configuration
// (x12).
func TestGoldenJobsInvariance(t *testing.T) {
	for _, exp := range []string{"x8", "x12"} {
		var seq, par bytes.Buffer
		if code := run([]string{"-run", exp, "-quick", "-j", "1"}, &seq, &par); code != 0 {
			t.Fatalf("%s exit %d: %s", exp, code, par.String())
		}
		par.Reset()
		var stderr bytes.Buffer
		if code := run([]string{"-run", exp, "-quick", "-j", "3"}, &par, &stderr); code != 0 {
			t.Fatalf("%s exit %d: %s", exp, code, stderr.String())
		}
		if !bytes.Equal(seq.Bytes(), par.Bytes()) {
			t.Fatalf("%s output differs between -j 1 and -j 3", exp)
		}
	}
}

// Flag-validation coverage: every malformed invocation must exit
// non-zero with a hint on stderr, never panic or silently no-op.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		hint string // substring stderr must contain
	}{
		{"unknown_run", []string{"-run", "fig99"}, "use -list"},
		{"bad_arch", []string{"-run", "tab5", "-arch", "sparc"}, "-arch knl, broadwell, or power8"},
		{"bad_format", []string{"-run", "tab5", "-format", "xml"}, "-format table, plot, or csv"},
		{"bad_fault_preset", []string{"-run", "x8", "-faults", "catastrophic"}, "usage: -faults"},
		{"bad_fault_key", []string{"-run", "x8", "-faults", "partial=0.3,bogus=1"}, "usage: -faults"},
		{"bad_fault_value", []string{"-run", "x8", "-faults", "partial=high"}, "usage: -faults"},
		{"bad_kill_value", []string{"-run", "x9", "-faults", "kill=lots"}, "usage: -faults"},
		{"negative_deadline", []string{"-run", "x9", "-deadline", "-100"}, "-deadline"},
		{"deadline_at_poll", []string{"-run", "x9", "-quick", "-deadline", "10"}, "poll quantum"},
		{"deadline_below_poll", []string{"-run", "x9", "-quick", "-deadline", "5"}, "poll quantum"},
		{"deadline_tiny", []string{"-run", "x9", "-quick", "-deadline", "1e-300"}, "poll quantum"},
		{"deadline_nan", []string{"-run", "x9", "-quick", "-deadline", "NaN"}, "-deadline"},
		{"deadline_inf", []string{"-run", "x9", "-quick", "-deadline", "+Inf"}, "-deadline"},
		{"negative_jobs", []string{"-run", "tab5", "-j", "-2"}, "negative -j -2"},
		{"no_experiments", []string{}, "Usage"},
		{"undefined_flag", []string{"-frobnicate"}, "flag provided but not defined"},
		{"duplicate_run", []string{"-run", "fig7,tab5,fig7"}, "duplicate experiment"},
		{"trace_not_traceable", []string{"-run", "x8,x9", "-quick", "-trace", "out.json"}, "-trace needs a traceable experiment"},
		{"bad_repro", []string{"-repro", "arch=knl"}, "usage: -repro"},
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

// TestKillDefaultDeadline pins the -faults kill=... / -deadline
// interaction: a kill plan without an explicit -deadline resolves to
// the documented x9 default (bench.DefaultDeadline), so the run is
// byte-identical to passing that deadline explicitly — never a zero
// deadline.
func TestKillDefaultDeadline(t *testing.T) {
	invoke := func(extra ...string) string {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-run", "x9", "-quick", "-j", "1",
			"-faults", "kill=0.5,killop=2,seed=33"}, extra...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		return stdout.String()
	}
	implicit := invoke()
	explicit := invoke("-deadline", "2000")
	if implicit != explicit {
		t.Fatal("kill plan without -deadline differs from explicit -deadline 2000")
	}
	if !strings.Contains(implicit, "detector deadline 2000us") {
		t.Fatalf("missing resolved deadline note:\n%s", implicit)
	}
	if !strings.Contains(implicit, "custom") {
		t.Fatalf("kill plan did not add the custom x9 scenario:\n%s", implicit)
	}
}

// TestKillPlanStrippedFromX8 pins the other half of that interaction:
// x8 runs without a liveness board, so the kill class of a custom
// -faults plan never reaches it — a kill-only plan contributes no
// custom column and the output matches a plain run exactly.
func TestKillPlanStrippedFromX8(t *testing.T) {
	invoke := func(extra ...string) string {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-run", "x8", "-quick", "-j", "1"}, extra...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		return stdout.String()
	}
	plain := invoke()
	killOnly := invoke("-faults", "kill=0.5,seed=33")
	if plain != killOnly {
		t.Fatal("kill-only -faults plan changed the x8 output (should be stripped)")
	}
}

// TestReproVerdict smoke-tests -repro: a green fuzz spec replays to
// PASS, and a malformed one is a usage error (covered above).
func TestReproVerdict(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-repro",
		"arch=knl kind=scatter algo=throttled:2 size=4096 procs=5 root=2 seed=11"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "PASS ") {
		t.Fatalf("missing PASS verdict:\n%s", stdout.String())
	}
}

// TestListSucceeds pins the one flag that must keep working for the
// hints above to be actionable.
func TestListSucceeds(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, id := range []string{"fig7", "tab6", "x8", "x9"} {
		if !strings.Contains(stdout.String(), id) {
			t.Fatalf("-list output missing %s:\n%s", id, stdout.String())
		}
	}
}

// TestStoreRecordsCells runs a small experiment with -store and
// verifies the run and per-cell records land in the store, tagged with
// arch/collective where the table titles carry them — and that the
// rendered stdout is byte-identical to a storeless run.
func TestStoreRecordsCells(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bench.store")
	var plain, stored, stderr bytes.Buffer
	if code := run([]string{"-run", "fig7", "-quick", "-arch", "knl"}, &plain, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"-run", "fig7", "-quick", "-arch", "knl", "-store", dir}, &stored, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if plain.String() != stored.String() {
		t.Fatal("-store changed the rendered experiment output")
	}
	if !strings.Contains(stderr.String(), "store: appended") {
		t.Fatalf("missing store summary on stderr: %s", stderr.String())
	}

	st, err := store.Open(dir, store.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	runs := st.Runs()
	if len(runs) != 1 || runs[0].Source != "bench" {
		t.Fatalf("runs = %+v, want one bench run", runs)
	}
	cells, err := st.Select(store.Filter{Type: store.TypeCell})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatal("no cell records stored")
	}
	for _, c := range cells {
		if c.RunID != runs[0].RunID || c.Experiment != "fig7" {
			t.Fatalf("stray cell %+v", c)
		}
		if c.Arch != "knl" || c.Collective != "scatter" {
			t.Fatalf("cell missing title tags: %+v", c)
		}
		if c.Value <= 0 {
			t.Fatalf("non-positive latency cell: %+v", c)
		}
	}
	// A second invocation under the same run id accumulates more cells.
	stderr.Reset()
	var out2 bytes.Buffer
	if code := run([]string{"-run", "tab5", "-store", dir, "-store-run", runs[0].RunID}, &out2, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	st2, err := store.Open(dir, store.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Runs()) != 1 {
		t.Fatalf("reusing a run id recorded %d runs", len(st2.Runs()))
	}
	more, _ := st2.Select(store.Filter{Type: store.TypeCell, Experiment: "tab5"})
	if len(more) == 0 {
		t.Fatal("tab5 cells not appended under the existing run")
	}
}

func TestStoreUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "tab5", "-store-run", "r1"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-store-run without -store: exit %d, want 2", code)
	}
	stderr.Reset()
	dir := filepath.Join(t.TempDir(), "bench.store")
	if code := run([]string{"-run", "tab5", "-store", dir, "-store-run", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown -store-run id: exit %d, want 2 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "unknown run id") {
		t.Fatalf("stderr missing hint: %s", stderr.String())
	}
}
