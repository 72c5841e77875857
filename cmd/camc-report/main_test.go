package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"camc/internal/store"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// beginRun records a run via the CLI and returns its id.
func beginRun(t *testing.T, dir string, extra ...string) string {
	t.Helper()
	args := append([]string{"begin", "-store", dir}, extra...)
	code, out, errb := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("begin exit %d: %s", code, errb)
	}
	return strings.TrimSpace(out)
}

// appendCell appends one bench.sh-style metric cell via the CLI.
func appendCell(t *testing.T, dir, runID, series string, value float64) {
	t.Helper()
	code, _, errb := runCLI(t, "append", "-store", dir, "-run", runID,
		"-experiment", "bench.sh", "-series", series,
		"-value", strconv.FormatFloat(value, 'g', -1, 64), "-unit", "us")
	if code != 0 {
		t.Fatalf("append exit %d: %s", code, errb)
	}
}

// TestRegressGate is the acceptance criterion: a synthetically injected
// 2x latency regression between two recorded runs exits non-zero and
// names the regressed cells, while identical back-to-back runs pass.
func TestRegressGate(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "gate.store")
	series := []string{"dispatch_ns", "selfwake_ns", "tab6_seconds"}
	base := map[string]float64{"dispatch_ns": 120, "selfwake_ns": 95, "tab6_seconds": 13.5}

	r1 := beginRun(t, dir, "-source", "bench")
	for _, s := range series {
		appendCell(t, dir, r1, s, base[s])
	}
	// Identical second run: the gate must pass.
	r2 := beginRun(t, dir, "-source", "bench")
	for _, s := range series {
		appendCell(t, dir, r2, s, base[s])
	}
	code, out, errb := runCLI(t, "regress", "-store", dir)
	if code != 0 {
		t.Fatalf("identical runs: exit %d\n%s%s", code, out, errb)
	}
	if !strings.Contains(out, "OK: no cell regressed") {
		t.Fatalf("missing OK line:\n%s", out)
	}

	// Third run with one series 2x slower: the gate must fail.
	r3 := beginRun(t, dir, "-source", "bench")
	for _, s := range series {
		v := base[s]
		if s == "dispatch_ns" {
			v *= 2
		}
		appendCell(t, dir, r3, s, v)
	}
	code, out, _ = runCLI(t, "regress", "-store", dir)
	if code != 1 {
		t.Fatalf("2x regression: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSED") || !strings.Contains(out, "2.00x") {
		t.Fatalf("missing REGRESSED 2.00x line:\n%s", out)
	}
	if !strings.Contains(out, "dispatch_ns") {
		t.Fatalf("regressed cell not named:\n%s", out)
	}
	if !strings.Contains(out, "FAIL: 1 of 3 cells regressed") {
		t.Fatalf("missing FAIL summary:\n%s", out)
	}

	// Same comparison under a higher threshold passes again.
	code, _, _ = runCLI(t, "regress", "-store", dir, "-threshold", "2.5")
	if code != 0 {
		t.Fatalf("threshold 2.5 should tolerate a 2x cell, exit %d", code)
	}
}

// TestRegressAgainstBaselineStore compares the head store's latest run
// against a separate committed baseline store — the CI gate shape.
func TestRegressAgainstBaselineStore(t *testing.T) {
	baseDir := filepath.Join(t.TempDir(), "baseline.store")
	headDir := filepath.Join(t.TempDir(), "scratch.store")
	rb := beginRun(t, baseDir, "-source", "bench")
	appendCell(t, baseDir, rb, "dispatch_ns", 100)
	rh := beginRun(t, headDir, "-source", "bench")
	appendCell(t, headDir, rh, "dispatch_ns", 100)

	code, out, errb := runCLI(t, "regress", "-store", headDir, "-against", baseDir)
	if code != 0 {
		t.Fatalf("flat vs baseline: exit %d\n%s%s", code, out, errb)
	}

	slow := beginRun(t, headDir, "-source", "bench")
	appendCell(t, headDir, slow, "dispatch_ns", 300)
	code, out, _ = runCLI(t, "regress", "-store", headDir, "-against", baseDir)
	if code != 1 {
		t.Fatalf("3x vs baseline: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "3.00x") {
		t.Fatalf("missing ratio:\n%s", out)
	}
}

// TestRegressSkipsSpeedupCells pins that "x"-unit cells (speedup
// ratios, where bigger is better) never count as regressions.
func TestRegressSkipsSpeedupCells(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "speedup.store")
	r1 := beginRun(t, dir, "-source", "bench")
	appendCell(t, dir, r1, "lat", 100)
	code, _, errb := runCLI(t, "append", "-store", dir, "-run", r1,
		"-experiment", "tab6", "-series", "speedup", "-value", "4.0", "-unit", "x")
	if code != 0 {
		t.Fatalf("append exit %d: %s", code, errb)
	}
	r2 := beginRun(t, dir, "-source", "bench")
	appendCell(t, dir, r2, "lat", 100)
	// Speedup halves (which would be bad) — but it's not a latency, so
	// the latency gate must not fire on it.
	code, _, errb = runCLI(t, "append", "-store", dir, "-run", r2,
		"-experiment", "tab6", "-series", "speedup", "-value", "2.0", "-unit", "x")
	if code != 0 {
		t.Fatalf("append exit %d: %s", code, errb)
	}
	code, out, _ := runCLI(t, "regress", "-store", dir)
	if code != 0 {
		t.Fatalf("speedup cell tripped the latency gate: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "1 cells compared") {
		t.Fatalf("speedup cell should be excluded from comparison:\n%s", out)
	}
}

// TestRegressExact pins regress -exact: a head store matching the
// baseline bit for bit passes (a speedup cell included), while a 1-ULP
// change or a key on only one side fails and names the cell.
func TestRegressExact(t *testing.T) {
	const lat = 123.456
	cases := []struct {
		name  string
		head  map[string]float64 // series -> value; "speedup" is an "x" cell
		code  int
		hints []string
	}{
		{"identical", map[string]float64{"lat": lat, "speedup": 2.5}, 0,
			[]string{"2 cells compared bit for bit", "OK: all 2 cells bit-identical"}},
		{"one_ulp", map[string]float64{"lat": math.Nextafter(lat, math.Inf(1)), "speedup": 2.5}, 1,
			[]string{"DIFFERS    123.456 -> 123.45600000000002 us  bench.sh", "lat", "FAIL: 1 of 2 cells differ"}},
		{"speedup_ulp", map[string]float64{"lat": lat, "speedup": math.Nextafter(2.5, 0)}, 1,
			[]string{"DIFFERS", "speedup", "FAIL: 1 of 2 cells differ"}},
		{"one_sided", map[string]float64{"lat": lat, "speedup": 2.5, "extra": 1}, 1,
			[]string{"ONLY HEAD", "extra", "0 only in base, 1 only in head"}},
	}
	baseDir := filepath.Join(t.TempDir(), "baseline.store")
	fill(t, baseDir, map[string]float64{"lat": lat, "speedup": 2.5})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			headDir := filepath.Join(t.TempDir(), "scratch.store")
			fill(t, headDir, tc.head)
			code, out, errb := runCLI(t, "regress", "-store", headDir, "-against", baseDir, "-exact")
			if code != tc.code {
				t.Fatalf("exit %d, want %d\n%s%s", code, tc.code, out, errb)
			}
			for _, h := range tc.hints {
				if !strings.Contains(out, h) {
					t.Fatalf("output missing %q:\n%s", h, out)
				}
			}
		})
	}
}

// fill records one run in dir holding the given cells: "speedup" as an
// "x"-unit cell, every other series as a latency.
func fill(t *testing.T, dir string, cells map[string]float64) {
	t.Helper()
	r := beginRun(t, dir, "-source", "bench")
	for series, v := range cells {
		if series != "speedup" {
			appendCell(t, dir, r, series, v)
			continue
		}
		code, _, errb := runCLI(t, "append", "-store", dir, "-run", r,
			"-experiment", "tab6", "-series", series,
			"-value", strconv.FormatFloat(v, 'g', -1, 64), "-unit", "x")
		if code != 0 {
			t.Fatalf("append exit %d: %s", code, errb)
		}
	}
}

// TestNewerFormatRefused corrupts a store's header to a future format
// version: every camc-report command must refuse with the upgrade hint
// rather than misparse it.
func TestNewerFormatRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "future.store")
	r := beginRun(t, dir, "-source", "bench")
	appendCell(t, dir, r, "lat", 1)
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	seg := segs[0]
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[8:12], store.FormatVersion+7)
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"runs", "cells", "trend", "regress", "export"} {
		code, _, errb := runCLI(t, cmd, "-store", dir)
		if code != 1 {
			t.Fatalf("%s on future store: exit %d, want 1", cmd, code)
		}
		if !strings.Contains(errb, "newer than") || !strings.Contains(errb, "upgrade camc") {
			t.Fatalf("%s: missing version-refusal hint: %s", cmd, errb)
		}
	}
}

// TestExportShape checks the BENCH_sweep.json-compatible snapshot:
// host/seed_baseline/current from the latest bench run, fuzz block from
// the latest fuzz run's corpus verdicts.
func TestExportShape(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "export.store")
	rb := beginRun(t, dir, "-source", "bench", "-jobs", "4")
	appendCell(t, dir, rb, "tab6_seconds_j4", 13.5)
	code, _, errb := runCLI(t, "append", "-store", dir, "-run", rb,
		"-experiment", "bench.sh", "-series", "dispatch_allocs_per_op", "-value", "92")
	if code != 0 {
		t.Fatalf("append exit %d: %s", code, errb)
	}
	rf := beginRun(t, dir, "-source", "fuzz", "-seed", "1")
	for _, arch := range []string{"knl", "broadwell"} {
		code, _, errb = runCLI(t, "append", "-store", dir, "-run", rf,
			"-experiment", "fuzz", "-arch", arch, "-series", "corpus",
			"-value", "200", "-verdict", "pass",
			"-detail", "corpus=200 fault_plans=57 kill_plans=11")
		if code != 0 {
			t.Fatalf("append exit %d: %s", code, errb)
		}
	}

	out := filepath.Join(t.TempDir(), "sweep.json")
	code, _, errb = runCLI(t, "export", "-store", dir, "-out", out)
	if code != 0 {
		t.Fatalf("export exit %d: %s", code, errb)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export is not JSON: %v\n%s", err, raw)
	}
	for _, top := range []string{"host", "seed_baseline", "current", "fuzz", "run"} {
		if _, ok := doc[top]; !ok {
			t.Fatalf("export missing %q block:\n%s", top, raw)
		}
	}
	host := doc["host"].(map[string]any)
	if host["tab6_jobs"].(float64) != 4 {
		t.Fatalf("host.tab6_jobs = %v, want 4", host["tab6_jobs"])
	}
	current := doc["current"].(map[string]any)
	if current["tab6_seconds_j4"].(float64) != 13.5 {
		t.Fatalf("current block wrong: %v", current)
	}
	// Integral values export as integers, matching the hand-written file.
	if !bytes.Contains(raw, []byte(`"dispatch_allocs_per_op": 92`)) {
		t.Fatalf("integral cell not exported as integer:\n%s", raw)
	}
	fuzz := doc["fuzz"].(map[string]any)
	if fuzz["corpus_per_arch"].(float64) != 200 || fuzz["failing_archs"].(float64) != 0 {
		t.Fatalf("fuzz block wrong: %v", fuzz)
	}
	archs := fuzz["archs"].([]any)
	if len(archs) != 2 {
		t.Fatalf("%d fuzz archs, want 2", len(archs))
	}
	a0 := archs[0].(map[string]any)
	if a0["fault_plans"].(float64) != 57 || a0["kill_plans"].(float64) != 11 {
		t.Fatalf("arch detail counts not parsed: %v", a0)
	}
}

// TestTrendTable renders two runs and checks the cell row carries both
// values in run order.
func TestTrendTable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trend.store")
	r1 := beginRun(t, dir, "-source", "bench")
	appendCell(t, dir, r1, "lat", 100)
	r2 := beginRun(t, dir, "-source", "bench")
	appendCell(t, dir, r2, "lat", 150)
	code, out, errb := runCLI(t, "trend", "-store", dir)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	if !strings.Contains(out, "r1 = "+r1) || !strings.Contains(out, "r2 = "+r2) {
		t.Fatalf("run legend missing:\n%s", out)
	}
	row := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "bench.sh") && strings.Contains(line, "lat") {
			row = line
		}
	}
	if !strings.Contains(row, "100") || !strings.Contains(row, "150") {
		t.Fatalf("trend row missing values: %q\n%s", row, out)
	}
	if !strings.Contains(out, "1 cells across 2 runs") {
		t.Fatalf("missing summary:\n%s", out)
	}
}

// TestRunsAndCellsListings smoke-tests the two listing commands.
func TestRunsAndCellsListings(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "list.store")
	r := beginRun(t, dir, "-source", "bench", "-note", "smoke")
	appendCell(t, dir, r, "lat", 42)
	code, out, errb := runCLI(t, "runs", "-store", dir)
	if code != 0 {
		t.Fatalf("runs exit %d: %s", code, errb)
	}
	if !strings.Contains(out, r) || !strings.Contains(out, "smoke") {
		t.Fatalf("runs listing:\n%s", out)
	}
	code, out, _ = runCLI(t, "cells", "-store", dir, "-series", "lat")
	if code != 0 {
		t.Fatalf("cells exit %d", code)
	}
	if !strings.Contains(out, "42 us") || !strings.Contains(out, "1 records") {
		t.Fatalf("cells listing:\n%s", out)
	}
}

func TestUsageErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "usage.store")
	r := beginRun(t, dir, "-source", "bench")
	cases := []struct {
		name string
		args []string
		hint string
	}{
		{"no_command", nil, "usage: camc-report"},
		{"unknown_command", []string{"frobnicate"}, "unknown command"},
		{"runs_no_store", []string{"runs"}, "missing -store"},
		{"regress_bad_threshold", []string{"regress", "-store", dir, "-threshold", "0.9"}, "must be > 1"},
		{"cells_bad_type", []string{"cells", "-store", dir, "-type", "blob"}, "unknown -type"},
		{"append_missing_series", []string{"append", "-store", dir, "-run", r, "-experiment", "e"}, "needs -store, -run"},
		{"trend_bad_last", []string{"trend", "-store", dir, "-last", "0"}, "-last must be"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			code, _, errb := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, errb)
			}
			if !strings.Contains(errb, tc.hint) {
				t.Fatalf("stderr missing %q: %s", tc.hint, errb)
			}
		})
	}
	// Unknown run id on append is a runtime error (1), with a hint.
	code, _, errb := runCLI(t, "append", "-store", dir, "-run", "nope",
		"-experiment", "e", "-series", "s", "-value", "1")
	if code != 1 || !strings.Contains(errb, "unknown run id") {
		t.Fatalf("append unknown run: exit %d, stderr %s", code, errb)
	}
}

// TestNow checks the portable timer helper prints fractional seconds.
func TestNow(t *testing.T) {
	code, out, _ := runCLI(t, "now")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	parts := strings.SplitN(strings.TrimSpace(out), ".", 2)
	if len(parts) != 2 || len(parts[1]) != 9 {
		t.Fatalf("now output %q, want unix.nanos with 9 fraction digits", out)
	}
}
