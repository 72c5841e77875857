package tuner

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/kernel"
	"camc/internal/measure"
	"camc/internal/mpi"
)

// Collective returns the table-driven implementation of kind: each call
// dispatches to the bucket covering Args.Count through core.Pick, as
// Lookup does. The tests time a table's choices through it.
func (t *Table) Collective(kind core.Kind) func(r *mpi.Rank, a core.Args) {
	bs := t.buckets(kind)
	return func(r *mpi.Rank, a core.Args) {
		bs[core.Pick(bs, a.Count)].Run(r, a)
	}
}

// fastCfg keeps autotune runs quick in tests.
var fastCfg = Config{ProbeSizes: []int64{4 << 10, 64 << 10, 1 << 20}}

func TestAutotuneKNLScatterPicksThrottled(t *testing.T) {
	tab := Autotune(arch.KNL(), fastCfg)
	e := tab.Lookup(core.KindScatter, 1<<20)
	if !strings.HasPrefix(e.Name, "throttle-") {
		t.Fatalf("KNL large scatter tuned to %q, want a throttled design", e.Name)
	}
	// The winning fan-out sits at the contention sweet spot (4..16).
	switch e.Name {
	case "throttle-4", "throttle-8", "throttle-16":
	default:
		t.Fatalf("KNL throttle pick %q outside the sweet-spot band", e.Name)
	}
}

func TestAutotuneSmallSizesAvoidNaiveCMA(t *testing.T) {
	tab := Autotune(arch.KNL(), fastCfg)
	for _, kind := range []core.Kind{core.KindScatter, core.KindGather, core.KindBcast} {
		e := tab.Lookup(kind, 1<<10)
		if e.Name == "parallel-read" || e.Name == "parallel-write" || e.Name == "direct-read" {
			t.Errorf("%s at 1K tuned to the contention-prone %q", kind, e.Name)
		}
	}
}

func TestAutotuneTableCoversAllSizes(t *testing.T) {
	tab := Autotune(arch.Broadwell(), fastCfg)
	for _, kind := range Kinds() {
		entries := tab.Entries[kind]
		if len(entries) == 0 {
			t.Fatalf("no entries for %s", kind)
		}
		if entries[len(entries)-1].MaxSize != math.MaxInt64 {
			t.Fatalf("%s: last bucket bounded at %d", kind, entries[len(entries)-1].MaxSize)
		}
		prev := int64(0)
		for _, e := range entries {
			if e.MaxSize <= prev {
				t.Fatalf("%s: buckets not ascending", kind)
			}
			prev = e.MaxSize
		}
	}
}

func TestMergeAdjacent(t *testing.T) {
	in := []Entry{
		{MaxSize: 10, Name: "a"},
		{MaxSize: 20, Name: "a"},
		{MaxSize: 30, Name: "b"},
		{MaxSize: 40, Name: "a"},
	}
	out := mergeAdjacent(in)
	if len(out) != 3 || out[0].MaxSize != 20 || out[1].Name != "b" || out[2].Name != "a" {
		t.Fatalf("merge wrong: %+v", out)
	}
}

// TestMergeAdjacentKeepsLastMeasurement pins the latency-attribution
// fix: a widened bucket must carry the measurement of the *last*
// bucket folded into it, so Fprint's "(x us at probe)" annotation
// names a probe that is actually inside the printed bucket.
func TestMergeAdjacentKeepsLastMeasurement(t *testing.T) {
	in := []Entry{
		{MaxSize: 4 << 10, Name: "a", Latency: 1.5, Probe: 1 << 10},
		{MaxSize: 64 << 10, Name: "a", Latency: 9.25, Probe: 64 << 10},
		{MaxSize: 1 << 20, Name: "b", Latency: 40, Probe: 1 << 20},
	}
	out := mergeAdjacent(in)
	if len(out) != 2 {
		t.Fatalf("merged to %d entries, want 2: %+v", len(out), out)
	}
	got := out[0]
	if got.MaxSize != 64<<10 || got.Latency != 9.25 || got.Probe != 64<<10 {
		t.Fatalf("widened bucket kept first measurement: %+v (want latency 9.25 at 64K)", got)
	}
}

// TestLookupEmptyKindPanics pins the hoisted guard: both Lookup and
// Collective on a kind the table has no entries for must fail with the
// descriptive tuner panic, not a raw index-out-of-range.
func TestLookupEmptyKindPanics(t *testing.T) {
	tab := &Table{Arch: "empty", Entries: map[core.Kind][]Entry{}}
	for name, call := range map[string]func(){
		"Lookup":     func() { tab.Lookup(core.KindScatter, 1) },
		"Collective": func() { tab.Collective(core.KindScatter) },
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s on empty kind did not panic", name)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "tuner: no entries for scatter") {
					t.Fatalf("%s panic = %v, want tuner: no entries for scatter", name, r)
				}
			}()
			call()
		}()
	}
}

func TestLookupBoundarySizes(t *testing.T) {
	tab := &Table{Entries: map[core.Kind][]Entry{
		core.KindBcast: {
			{MaxSize: 4 << 10, Name: "small"},
			{MaxSize: math.MaxInt64, Name: "big"},
		},
	}}
	cases := []struct {
		size int64
		want string
	}{
		{0, "small"},
		{4 << 10, "small"},     // bucket upper bounds are inclusive
		{4<<10 + 1, "big"},     // first byte past the boundary
		{math.MaxInt64, "big"}, // last bucket is a catch-all
	}
	for _, c := range cases {
		if got := tab.Lookup(core.KindBcast, c.size); got.Name != c.want {
			t.Errorf("Lookup(%d) = %q, want %q", c.size, got.Name, c.want)
		}
	}
}

func TestTunedDispatchMatchesWinner(t *testing.T) {
	// The table-driven collective must perform exactly like the winning
	// algorithm it routes to.
	a := arch.KNL()
	tab := Autotune(a, fastCfg)
	const size = 64 << 10
	viaTable := measure.Collective(a, core.KindGather, tab.Collective(core.KindGather), size, measure.Options{})
	e := tab.Lookup(core.KindGather, size)
	direct := 0.0
	for _, c := range Candidates(core.KindGather, a) {
		if c.Name == e.Name {
			direct = measure.Collective(a, core.KindGather, c.Run, size, measure.Options{})
		}
	}
	if direct == 0 {
		t.Fatalf("winner %q not found among candidates", e.Name)
	}
	if viaTable != direct {
		t.Fatalf("table dispatch %g != direct %g", viaTable, direct)
	}
}

func TestAutotunedNeverWorseThanHandTuned(t *testing.T) {
	// The measured table must match or beat the paper's core.Tuned
	// selections at the probe sizes (it searched a superset).
	a := arch.KNL()
	tab := Autotune(a, fastCfg)
	for _, kind := range []core.Kind{core.KindScatter, core.KindGather, core.KindBcast, core.KindAllgather, core.KindAlltoall} {
		for _, size := range fastCfg.ProbeSizes {
			auto := measure.Collective(a, kind, tab.Collective(kind), size, measure.Options{})
			hand := measure.Collective(a, kind, core.Tuned(kind), size, measure.Options{})
			if auto > 1.05*hand {
				t.Errorf("%s at %d: autotuned %g worse than hand-tuned %g", kind, size, auto, hand)
			}
		}
	}
}

func TestTableFprint(t *testing.T) {
	tab := Autotune(arch.KNL(), Config{ProbeSizes: []int64{64 << 10}})
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"tuning table for knl", "scatter", "bcast", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("print missing %q:\n%s", want, out)
		}
	}
}

func TestTunedReduceCorrectViaTable(t *testing.T) {
	// End-to-end: the tuned Reduce routed through the table still
	// produces the right reduction.
	a := arch.KNL()
	tab := Autotune(a, Config{Procs: 8, ProbeSizes: []int64{32 << 10}})
	p := 8
	const count = 8192
	c := mpi.New(mpi.Config{Arch: a, Procs: p, CopyData: true, MemPerProc: 32 << 20})
	send := make([]kernel.Addr, p)
	recv := make([]kernel.Addr, p)
	for i := 0; i < p; i++ {
		send[i] = c.Rank(i).Alloc(count)
		recv[i] = c.Rank(i).Alloc(count)
		buf := c.Rank(i).OS.Bytes(send[i], count)
		for j := range buf {
			buf[j] = byte(i + j)
		}
	}
	c.Start(func(r *mpi.Rank) {
		tab.Collective(core.KindReduce)(r, core.Args{Send: send[r.ID], Recv: recv[r.ID], Count: count, Root: 0})
	})
	if err := c.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	got := c.Rank(0).OS.Bytes(recv[0], count)
	for _, j := range []int64{0, count / 2, count - 1} {
		var want byte
		for i := 0; i < p; i++ {
			want += byte(i + int(j))
		}
		if got[j] != want {
			t.Fatalf("offset %d: got %d want %d", j, got[j], want)
		}
	}
}

// TestAutotuneParallelMatchesSequential checks that the probe worker
// pool never changes the tuned table: Jobs=8 renders byte-identical to
// Jobs=1.
func TestAutotuneParallelMatchesSequential(t *testing.T) {
	render := func(jobs int) string {
		cfg := fastCfg
		cfg.Jobs = jobs
		var buf bytes.Buffer
		Autotune(arch.KNL(), cfg).Fprint(&buf)
		return buf.String()
	}
	seq, par := render(1), render(8)
	if seq != par {
		t.Fatalf("tables differ:\n--- j1 ---\n%s--- j8 ---\n%s", seq, par)
	}
}
