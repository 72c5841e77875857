package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Flag-validation coverage: malformed invocations exit 2 with a hint on
// stderr; nothing panics or half-runs.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		hint string
	}{
		{"unknown_run", []string{"-run", "fig99"}, "unknown run"},
		{"bad_arch", []string{"-arch", "sparc"}, "-arch knl, broadwell, or power8"},
		{"bad_size", []string{"-size", "huge"}, "bad size"},
		{"bad_algo", []string{"-run", "scatter", "-algo", "quantum"}, "core.LookupAlgorithm"},
		{"bad_fault_spec", []string{"-run", "scatter", "-faults", "partial=lots"}, "usage: -faults"},
		{"negative_deadline", []string{"-run", "scatter", "-deadline", "-10"}, "-deadline"},
		{"deadline_below_poll", []string{"-run", "scatter", "-deadline", "5"}, "poll quantum"},
		{"deadline_nan", []string{"-run", "scatter", "-deadline", "NaN"}, "-deadline"},
		{"negative_procs", []string{"-run", "bcast", "-procs", "-3"}, "-procs -3 outside 0..272"},
		{"procs_above_threads", []string{"-arch", "broadwell", "-procs", "29"}, "-procs 29 outside 0..28"},
		{"zero_iters", []string{"-run", "bcast", "-iters", "0"}, "-iters 0"},
		{"negative_iters", []string{"-iters", "-2"}, "-iters -2"},
		{"bench_needs_figure", []string{"-run", "scatter", "-bench"}, "-bench requires a figure id"},
		{"undefined_flag", []string{"-frobnicate"}, "flag provided but not defined"},
		{"bad_repro", []string{"-repro", "arch=knl kind=scatter"}, "usage: -repro"},
		{"bad_repro_algo", []string{"-repro", "arch=knl kind=scatter algo=quantum size=4096 procs=5 root=0 seed=1"}, "usage: -repro"},
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

// TestTraceRunsAndTalliesFaults smoke-tests the happy path with a fault
// plan attached: exit 0, a latency line, and the injected-fault tally.
func TestTraceRunsAndTalliesFaults(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-run", "scatter", "-arch", "broadwell", "-size", "64K",
		"-procs", "8", "-algo", "throttled:4", "-faults", "heavy"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "latency") {
		t.Fatalf("missing latency line:\n%s", out)
	}
	if !strings.Contains(out, "faults:") {
		t.Fatalf("missing fault tally:\n%s", out)
	}
}

// TestTraceRecoveryCycle smoke-tests the kill-plan path: the CLI
// switches to the recovery harness, reports the dead ranks and the
// detect/shrink/re-run latencies, and tallies the liveness events.
func TestTraceRecoveryCycle(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-run", "bcast", "-arch", "broadwell", "-size", "16K",
		"-procs", "8", "-algo", "knomial-read:4", "-faults", "kill=0.35,seed=11", "-deadline", "500"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"recovery: dead ranks", "detect", "shrink", "payload verified", "rank_killed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestTraceReduce covers the one collective with no paper figure: the
// -run grammar accepts it and the tuned plan traces end to end.
func TestTraceReduce(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-run", "reduce", "-arch", "broadwell", "-size", "16K", "-procs", "6"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "reduce") || !strings.Contains(stdout.String(), "latency") {
		t.Fatalf("missing reduce latency line:\n%s", stdout.String())
	}
}

// TestTraceRepro replays a camc-fuzz reproducer: verdict first, then
// the requested exporters over the checked run's trace.
func TestTraceRepro(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-repro",
		"arch=knl kind=scatter algo=throttled:2 size=65536 procs=5 root=2 seed=11",
		"-critical-path"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "PASS ") {
		t.Fatalf("missing PASS verdict:\n%s", out)
	}
	if !strings.Contains(out, "critical path") {
		t.Fatalf("-critical-path did not run over the repro trace:\n%s", out)
	}
}

// TestTraceReproKillExportsChrome replays a kill-plan reproducer and
// checks the recovery cycle's trace lands in the Chrome JSON export —
// the deterministic round trip the fuzzer's FAIL hint promises.
func TestTraceReproKillExportsChrome(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repro.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-repro",
		"arch=knl kind=gather algo=sequential-read size=1024 procs=4 root=0 seed=18 faults=kill=0.5,killop=2,seed=33 deadline=2000",
		"-out", path}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "recovery: dead ranks") {
		t.Fatalf("missing recovery report:\n%s", stdout.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rank_killed", "traceEvents"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("exported trace missing %q", want)
		}
	}
}

// TestTraceDeterministicOutput pins end-to-end CLI determinism on the
// fault path: two invocations with the same flags print the same bytes.
func TestTraceDeterministicOutput(t *testing.T) {
	invoke := func() string {
		var stdout, stderr bytes.Buffer
		args := []string{"-run", "gather", "-size", "16K", "-procs", "6",
			"-faults", "moderate", "-summary"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		return stdout.String()
	}
	if a, b := invoke(), invoke(); a != b {
		t.Fatal("camc-trace output differs between identical invocations")
	}
}

// TestTraceClusterRepro replays a multi-node reproducer: the verdict
// must pass, and the exported trace must carry the network category
// (fabric send/recv spans and link contention instants).
func TestTraceClusterRepro(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-repro",
		"arch=knl kind=gather algo=throttled:2 size=2048 procs=3 root=4 seed=11 nodes=3 topo=fattree design=leader",
		"-summary", "-out", path}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "PASS ") {
		t.Fatalf("missing PASS verdict:\n%s", out)
	}
	if !strings.Contains(out, "net") {
		t.Fatalf("summary missing the net category:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"net_send", "net_recv", "net_link", "hcoll:gather:leader"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("exported trace missing %q", want)
		}
	}
}
