package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"camc/internal/check"
	"camc/internal/core"
)

// benchmarkSpec is the part of BENCHMARK.json the self-tests read.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs a few ops of every workload, untraced and traced, and
// checks that every declared metric prints by name with its unit, both
// in the report and in the final JSON line.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Fatalf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
	}
	for _, name := range workloadNames {
		for _, traced := range []string{"0", "1"} {
			t.Run(name+"/trace"+traced, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-root", "..", "-workload", name, "-seed", "3", "-seconds", "1", "-trace", traced,
					"-smoke", "3", "-spans", filepath.Join(t.TempDir(), "spans.json")}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d\n%s", res.Correct, res.Attempted, stdout.String())
				}
				want := spec.EndToEnd
				if traced == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(want))
				}
				report := strings.Join(lines[:len(lines)-1], "\n")
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
					if !strings.Contains(report, m.Name+" ") {
						t.Errorf("report does not print %s", m.Name)
					}
				}
				if traced == "0" && !strings.Contains(report, "fail_ratio") {
					t.Error("report does not print fail_ratio")
				}
			})
		}
	}
}

func nodeBench(t *testing.T) *bench {
	t.Helper()
	r, err := loadRefs("..")
	if err != nil {
		t.Fatal(err)
	}
	w, err := nodeWorkload(r)
	if err != nil {
		t.Fatal(err)
	}
	b := newBench()
	b.w = w
	return b
}

// cellIndex finds the catalogue cell with the given label.
func cellIndex(t *testing.T, b *bench, label string) int {
	t.Helper()
	for i, c := range b.w.cells {
		if c.label == label {
			return i
		}
	}
	t.Fatalf("no cell %q", label)
	return -1
}

// TestPerturbedReferenceFails nudges a store reference by one ulp: the
// op must fail as a wrong output.
func TestPerturbedReferenceFails(t *testing.T) {
	b := nodeBench(t)
	i := cellIndex(t, b, "fig7/knl/scatter/throttled:8/4K/p64/amb0")
	if _, _, ok := b.do(&b.w.cells[i], nil); !ok {
		t.Fatalf("unperturbed cell failed: %+v", b.fails)
	}
	b.w.cells[i].want = out{math.Nextafter(b.w.cells[i].want[0], math.Inf(1))}
	if _, _, ok := b.do(&b.w.cells[i], nil); ok || b.wrong != 1 || b.failed() != 1 {
		t.Fatalf("perturbed reference passed: ok=%v wrong=%d failed=%d", ok, b.wrong, b.failed())
	}
}

// TestPerturbedFabricReferenceFails does the same on an x11 and an x12
// cell of the fabric workload.
func TestPerturbedFabricReferenceFails(t *testing.T) {
	r, err := loadRefs("..")
	if err != nil {
		t.Fatal(err)
	}
	w, err := fabricWorkload(r)
	if err != nil {
		t.Fatal(err)
	}
	b := newBench()
	b.w = w
	for _, label := range []string{"x11/knl/gather/leader/n64/ppn8", "x12/knl/gather/dragonfly/shared/n64/kill-node"} {
		i := cellIndex(t, b, label)
		if _, _, ok := b.do(&w.cells[i], nil); !ok {
			t.Fatalf("unperturbed %s failed: %+v", label, b.fails)
		}
		want := w.cells[i].want
		want[len(want)-1] = math.Nextafter(want[len(want)-1], math.Inf(-1))
		if _, _, ok := b.do(&w.cells[i], nil); ok {
			t.Fatalf("perturbed reference of %s passed", label)
		}
	}
	if b.wrong != 2 || b.failed() != 2 {
		t.Fatalf("wrong=%d failed=%d, want 2 and 2", b.wrong, b.failed())
	}
}

// TestWrongAlgorithmFails swaps a cell's algorithm for another one of
// the same kind, once on a store-checked cell and once on a cell
// checked by recurrence: both must fail as wrong outputs.
func TestWrongAlgorithmFails(t *testing.T) {
	b := nodeBench(t)
	wrong, err := core.LookupAlgorithm(core.KindScatter, "throttled:4")
	if err != nil {
		t.Fatal(err)
	}
	stored := cellIndex(t, b, "fig7/knl/scatter/throttled:8/4K/p64/amb0")
	b.w.cells[stored].op.(*collOp).algo = wrong.Run
	if _, _, ok := b.do(&b.w.cells[stored], nil); ok {
		t.Fatal("wrong algorithm matched the baseline store")
	}

	var recur int
	for i, c := range b.w.cells {
		if op := c.op.(*collOp); c.want == nil && op.kind == core.KindScatter && op.spec == "sequential-write" {
			recur = i
			break
		}
	}
	if _, _, ok := b.do(&b.w.cells[recur], nil); !ok {
		t.Fatalf("first run failed: %+v", b.fails)
	}
	b.w.cells[recur].op.(*collOp).algo = wrong.Run
	if _, _, ok := b.do(&b.w.cells[recur], nil); ok {
		t.Fatal("wrong algorithm reproduced the first result")
	}
	if b.wrong != 2 || b.failed() != 2 {
		t.Fatalf("wrong=%d failed=%d, want 2 and 2", b.wrong, b.failed())
	}
}

// TestOracleMismatchIsWrong makes check.RunOne report a differential
// mismatch, as it does when a run's receive buffers disagree with the
// reference executor: the op must fail as a wrong output, traced or not.
func TestOracleMismatchIsWrong(t *testing.T) {
	defer func(f func(check.Spec) (*check.RunResult, error)) { runOne = f }(runOne)
	runOne = func(sp check.Spec) (*check.RunResult, error) {
		res, err := check.RunOne(sp)
		if err != nil {
			return res, err
		}
		return res, fmt.Errorf("check: %s: rank 0 recv mismatch at offset 0", sp)
	}
	b := newBench()
	c := specCell(0)
	if _, _, ok := b.do(&c, nil); ok {
		t.Fatal("mismatching run passed")
	}
	if _, _, ok := b.do(&c, newTracer()); ok {
		t.Fatal("mismatching traced run passed")
	}
	if b.wrong != 2 || b.failed() != 2 {
		t.Fatalf("wrong=%d failed=%d, want 2 and 2", b.wrong, b.failed())
	}
	if c.op.(*specOp).res != nil {
		t.Fatal("a failed run's result is still held")
	}
}

// specCell is a check cell on spec i of camc-fuzz's seed-1 corpus with
// fault and kill plans, the corpus the probe cell draws from.
func specCell(i int) cell {
	sp := check.Gen(1, i, check.GenOptions{Faults: true, Kills: true})
	return cell{label: sp.String(), op: &specOp{sp: sp}}
}

// TestUntracedKeepsNoResult checks that untraced check ops do not hold
// their RunResult, which carries the whole trace, past the op.
func TestUntracedKeepsNoResult(t *testing.T) {
	b := newBench()
	for i := 0; i < 5; i++ {
		c := specCell(i)
		if _, _, ok := b.do(&c, nil); !ok {
			t.Fatalf("cell %d failed: %+v", i, b.fails)
		}
		if c.op.(*specOp).res != nil {
			t.Fatalf("cell %d keeps its result", i)
		}
	}
}

// knownDefect is the seed-1 fuzz corpus spec 296, which panics inside
// the single-node recovery harness.
const knownDefect = "arch=knl kind=gather algo=sequential-read size=262144 procs=9 root=8 seed=1712302316 ambient=8 faults=kill=0.4,killop=3,seed=431 deadline=2000"

// TestPanicCounted runs the known defect through the benchmark: a
// panicking op must count as failed, with its spec listed, without
// calling the outputs wrong.
func TestPanicCounted(t *testing.T) {
	c := specCell(296)
	if c.label != knownDefect {
		t.Fatalf("corpus spec 296 is %q, want the known defect", c.label)
	}
	b := newBench()
	if _, _, ok := b.do(&c, nil); ok {
		t.Skip("the known defect no longer fails; run another panicking op here")
	}
	f := b.fails[knownDefect]
	if f == nil || f.count != 1 || !strings.Contains(f.err.Error(), "panic") || b.wrong != 0 {
		t.Fatalf("defect not counted as one panicking op: %+v wrong=%d", f, b.wrong)
	}
}

func TestTailOf(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	val, pct, beyond := tailOf(v)
	if val != 90 || pct != 90 || beyond != 10 {
		t.Fatalf("tailOf(1..100) = %v, p%v, %d beyond; want 90, p90, 10", val, pct, beyond)
	}
	if val, _, beyond := tailOf([]float64{3, 1, 2}); val != 3 || beyond != 0 {
		t.Fatalf("short sample: %v, %d beyond", val, beyond)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "cluster.run", ID: 1, Parent: 0, Start: 10, End: 70},
		{Name: "sim", ID: 2, Parent: 1, Start: 20, End: 50},
	}
	got := map[string]int64{}
	for _, r := range selfTimes(spans) {
		got[r.name] = int64(r.self)
	}
	if got["op"] != 40 || got["cluster.run"] != 30 || got["sim"] != 30 {
		t.Fatalf("self times %v, want op 40, cluster.run 30, sim 30", got)
	}
}
