package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"camc/internal/trace"
)

// quickManifest pins every experiment's quick output: one "<id> <sha256>"
// line per registered experiment, the digest of its -j 1 rendering.
// Virtual time makes the output a pure function of the code, so a moved
// digest is a real behaviour change. Regenerate after an intentional one
// with:
//
//	go test ./internal/bench -run 'TestEveryExperimentRunsQuick|TestParallelMatchesSequential' -update
const quickManifest = "testdata/quick.sha256"

var update = flag.Bool("update", false, "rewrite "+quickManifest+" from the -j 1 quick output")

// readManifest loads quickManifest, failing the test on a malformed
// line, a registered experiment with no digest, or a digest for an
// experiment that is not registered.
func readManifest(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(quickManifest)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	digests := map[string]string{}
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("%s:%d: want \"<id> <sha256>\", got %q", quickManifest, i+1, line)
		}
		if _, dup := digests[f[0]]; dup {
			t.Fatalf("%s:%d: duplicate id %s", quickManifest, i+1, f[0])
		}
		digests[f[0]] = f[1]
	}
	for _, e := range Registry() {
		if _, ok := digests[e.ID]; !ok {
			t.Errorf("%s: no digest for experiment %s (run with -update)", quickManifest, e.ID)
		}
	}
	for id := range digests {
		if _, ok := ByID(id); !ok {
			t.Errorf("%s: digest for unregistered experiment %s", quickManifest, id)
		}
	}
	return digests
}

// quickDigest renders e's quick tables at -j jobs and returns the hex
// SHA-256 of the output.
func quickDigest(t *testing.T, e *Experiment, jobs int) string {
	t.Helper()
	h := sha256.New()
	if err := e.Run(h, Options{Quick: true, Jobs: jobs}); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEveryExperimentRunsQuick renders every registered experiment
// quick at -j 1 and compares the output's digest with quickManifest
// (with -update, rewrites the manifest instead).
func TestEveryExperimentRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick full-registry pass still takes tens of seconds; TestParallelMatchesSequential keeps the digests pinned")
	}
	if *update && raceDetectorOn {
		t.Fatal("-update needs every experiment; the race build skips some, so run it without -race")
	}
	var want map[string]string
	if !*update {
		want = readManifest(t)
	}
	var mu sync.Mutex
	got := map[string]string{}
	if *update {
		t.Cleanup(func() {
			if !t.Failed() {
				writeManifest(t, got)
			}
		})
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			skipIfRaceExpensive(t, e.ID)
			d := quickDigest(t, e, 1)
			if *update {
				mu.Lock()
				got[e.ID] = d
				mu.Unlock()
				return
			}
			if w, ok := want[e.ID]; ok && d != w {
				t.Errorf("%s: quick output moved: sha256 %s, %s has %s (diff `camc-bench -run %s -quick -j 1` against the parent; -update if intentional)",
					e.ID, d, quickManifest, w, e.ID)
			}
		})
	}
}

// writeManifest rewrites quickManifest from got in registry order.
func writeManifest(t *testing.T, got map[string]string) {
	var b strings.Builder
	for _, e := range Registry() {
		fmt.Fprintf(&b, "%s %s\n", e.ID, got[e.ID])
	}
	if err := os.MkdirAll(filepath.Dir(quickManifest), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(quickManifest, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestParallelMatchesSequential is the parallel engine's core contract:
// for every registered experiment, the rendered tables under -j 8 are
// byte-identical to a sequential -j 1 run, whose digest quickManifest
// holds.
func TestParallelMatchesSequential(t *testing.T) {
	want := readManifest(t)
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			skipIfRaceExpensive(t, e.ID)
			if d, w := quickDigest(t, e, 8), want[e.ID]; w != "" && d != w {
				t.Errorf("%s: -j 8 output sha256 %s differs from the -j 1 digest %s in %s",
					e.ID, d, w, quickManifest)
			}
		})
	}
}

// TestTraceSinkOrderDeterministic pins the serialized TraceSink
// contract: delivery order and labels are identical for any Jobs value,
// and every recorder is non-nil.
func TestTraceSinkOrderDeterministic(t *testing.T) {
	// The sink contract is a concurrency property, so it must stay
	// covered under the race detector — use the cheaper fig7 sweep there.
	id := "fig9"
	if raceDetectorOn {
		id = "fig7"
	}
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	order := func(jobs int) []string {
		var got []string
		o := Options{Quick: true, Arch: "knl", Jobs: jobs,
			TraceSink: func(archName, algo string, size int64, rec *trace.Recorder) {
				if rec == nil {
					t.Fatalf("nil recorder for %s/%s/%d", archName, algo, size)
				}
				got = append(got, fmt.Sprintf("%s/%s/%d", archName, algo, size))
			}}
		var buf bytes.Buffer
		if err := e.Run(&buf, o); err != nil {
			t.Fatal(err)
		}
		return got
	}
	seq := order(1)
	if len(seq) == 0 {
		t.Fatal("sink never called")
	}
	par := order(8)
	if len(par) != len(seq) {
		t.Fatalf("sink call count: j8=%d j1=%d", len(par), len(seq))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("sink order diverged at %d: j1=%s j8=%s", i, seq[i], par[i])
		}
	}
}
