package check

import (
	"strings"
	"testing"

	"camc/internal/core"
	"camc/internal/fault"
	"camc/internal/payload"
	"camc/internal/trace"
)

func TestSpecStringParseRoundTrip(t *testing.T) {
	specs := []Spec{
		{Arch: "knl", Kind: core.KindScatter, Algo: "throttled:4", Count: 65536, Procs: 8, Root: 3, Seed: 17},
		{Arch: "power8", Kind: core.KindReduce, Algo: "knomial:2", Count: 512, Procs: 5, Seed: 1, Skew: 2.5},
		{Arch: "knl", Kind: core.KindGather, Algo: "throttled:4", Count: 32768, Procs: 8, Seed: 7, Ambient: 32},
		{Arch: "broadwell", Kind: core.KindBcast, Algo: "direct-read", Count: 64, Procs: 6, Root: 1, Seed: 0,
			Faults: "kill=0.4,killop=3,seed=620", Deadline: 2000},
	}
	for _, sp := range specs {
		got, err := ParseSpec(sp.String())
		if err != nil {
			t.Fatalf("%s: %v", sp, err)
		}
		if got != sp {
			t.Errorf("round trip: got %s, want %s", got, sp)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	base := "arch=knl kind=scatter algo=parallel-read size=64 procs=4 root=0 seed=1"
	bad := []string{
		"",
		base + " size=128",      // duplicate key
		base + " color=blue",    // unknown key
		"arch=knl kind=scatter", // missing fields
		strings.Replace(base, "arch=knl", "arch=epyc", 1),
		strings.Replace(base, "size=64", "size=0", 1),
		strings.Replace(base, "procs=4", "procs=1", 1),
		strings.Replace(base, "root=0", "root=4", 1),
		strings.Replace(base, "algo=parallel-read", "algo=nope", 1),
		strings.Replace(base, "algo=parallel-read", "algo=parallel-read:3", 1), // takes no parameter
		base + " faults=bogus=1",
		base + " skew=-1",
		base + " ambient=-3",
		base + " ambient=two",
		base + " deadline=-5",
		base + " deadline=1",  // not above the detector's 10 us poll
		base + " deadline=10", // one poll: live ranks read as dead
		base + " deadline=NaN",
		base + " deadline=+Inf",
		"arch=knl kind=bcast algo=binomial size=64 procs=2 root=0 seed=1 ambient=8 nodes=2", // ambient is single-node machinery
	}
	for _, line := range bad {
		if _, err := ParseSpec(line); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
}

func TestParseSizeSuffixes(t *testing.T) {
	for line, want := range map[string]int64{
		"arch=knl kind=bcast algo=direct-read size=64K procs=4 root=0 seed=1": 64 << 10,
		"arch=knl kind=bcast algo=direct-read size=2M procs=4 root=0 seed=1":  2 << 20,
	} {
		sp, err := ParseSpec(line)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Count != want {
			t.Errorf("%q: size %d, want %d", line, sp.Count, want)
		}
	}
}

// fakeClock drives a recorder for hand-built violation traces.
type fakeClock struct{ t float64 }

func (c *fakeClock) Now() float64 { return c.t }

// seededResult builds a RunResult around a scripted recorder.
func seededResult(procs int, build func(clk *fakeClock, rec *trace.Recorder)) *RunResult {
	clk := &fakeClock{}
	rec := trace.NewUnbound()
	rec.Bind(clk)
	for i := 0; i < procs; i++ {
		rec.RegisterLane(i, "rank", 100+i)
	}
	build(clk, rec)
	return &RunResult{
		Spec: Spec{Arch: "knl", Kind: core.KindScatter, Algo: "parallel-read", Count: 64, Procs: procs, Seed: 1},
		Rec:  rec, Procs: procs,
	}
}

// violationsOf runs the registry and returns the names that fired.
func violationsOf(r *RunResult) map[string]int {
	out := map[string]int{}
	for _, v := range CheckInvariants(r) {
		out[v.Invariant]++
	}
	return out
}

func TestInvariantClockMonotone(t *testing.T) {
	r := seededResult(2, func(clk *fakeClock, rec *trace.Recorder) {
		clk.t = 5
		rec.Instant(0, trace.CatColl, "step")
		clk.t = 3
		rec.Instant(1, trace.CatColl, "step")
	})
	if v := violationsOf(r); v["clock-monotone"] == 0 {
		t.Errorf("backwards clock not caught: %v", v)
	}
}

func TestInvariantEdgeOrdering(t *testing.T) {
	r := seededResult(2, func(clk *fakeClock, rec *trace.Recorder) {
		clk.t = 10
		// SendTs after ReadyTs: impossible hand-off.
		rec.Edge(0, 1, trace.CatShm, "eager", 9, 7, 6, 10)
	})
	if v := violationsOf(r); v["clock-monotone"] == 0 {
		t.Errorf("edge SendTs > ReadyTs not caught: %v", v)
	}
}

func TestInvariantSpanNesting(t *testing.T) {
	overlap := seededResult(1, func(clk *fakeClock, rec *trace.Recorder) {
		a := rec.Begin(0, trace.CatColl, "outer")
		clk.t = 5
		rec.Begin(0, trace.CatCMA, "inner")
		clk.t = 10
		rec.End(a)
		// inner left open: reuse its id via a second Begin is not possible,
		// so close it late through a fresh span end — instead just leave it
		// open; openness is the violation on a non-kill run.
	})
	if v := violationsOf(overlap); v["span-nesting"] == 0 {
		t.Errorf("open span not caught: %v", v)
	}

	killed := seededResult(1, func(clk *fakeClock, rec *trace.Recorder) {
		rec.Begin(0, trace.CatColl, "outer") // dies holding the span
	})
	killed.Killed = true
	if v := violationsOf(killed); v["span-nesting"] != 0 {
		t.Errorf("kill-run open span flagged: %v", v)
	}

	crossing := seededResult(1, func(clk *fakeClock, rec *trace.Recorder) {
		a := rec.Begin(0, trace.CatColl, "outer")
		clk.t = 5
		b := rec.Begin(0, trace.CatCMA, "inner")
		clk.t = 10
		rec.End(a)
		clk.t = 15
		rec.End(b) // closes after its enclosing span
	})
	if v := violationsOf(crossing); v["span-nesting"] == 0 {
		t.Errorf("crossing spans not caught: %v", v)
	}
}

func TestInvariantLockBalance(t *testing.T) {
	holder := trace.F("holder", 1)
	over := seededResult(2, func(clk *fakeClock, rec *trace.Recorder) {
		rec.Instant(0, trace.CatLock, "mm_lock_release", holder)
	})
	if v := violationsOf(over); v["lock-balance"] == 0 {
		t.Errorf("over-release not caught: %v", v)
	}

	leak := seededResult(2, func(clk *fakeClock, rec *trace.Recorder) {
		rec.Instant(0, trace.CatLock, "mm_lock_acquire", holder, trace.F("c", 1))
	})
	if v := violationsOf(leak); v["lock-balance"] == 0 {
		t.Errorf("leaked acquire not caught: %v", v)
	}
	leak.Killed = true
	if v := violationsOf(leak); v["lock-balance"] != 0 {
		t.Errorf("kill-run held lock flagged: %v", v)
	}

	reacquire := seededResult(2, func(clk *fakeClock, rec *trace.Recorder) {
		rec.Instant(0, trace.CatLock, "mm_lock_acquire", holder, trace.F("c", 1))
		rec.Instant(0, trace.CatLock, "mm_lock_acquire", holder, trace.F("c", 1))
	})
	if v := violationsOf(reacquire); v["lock-balance"] == 0 {
		t.Errorf("double acquire not caught: %v", v)
	}
}

func TestInvariantGammaSanity(t *testing.T) {
	r := seededResult(2, func(clk *fakeClock, rec *trace.Recorder) {
		rec.Instant(0, trace.CatCMA, "gamma", trace.F("gamma", 0.5), trace.F("c", 1))
		rec.Instant(0, trace.CatCMA, "gamma", trace.F("gamma", 1.5), trace.F("c", 7))
		rec.Counter(0, trace.CatLock, trace.CounterInFlight, 2) // first sample must be 1
		rec.Counter(0, trace.CatLock, trace.CounterInFlight, 0)
		rec.Counter(1, trace.CatLock, trace.CounterInFlight, 1)
		rec.Counter(1, trace.CatLock, trace.CounterInFlight, 3) // step +2
	})
	// gamma<1; c=7>procs; lane-0 first sample 2; lane-0 step -2;
	// lane-1 value 3>procs; lane-1 step +2.
	v := violationsOf(r)
	if v["gamma-sanity"] != 6 {
		t.Errorf("want 6 gamma-sanity violations, got %v", v)
	}
}

func TestInvariantFaultConservation(t *testing.T) {
	r := seededResult(2, func(clk *fakeClock, rec *trace.Recorder) {})
	r.Stats = fault.Stats{Transients: 3, Retries: 1, Fallbacks: 1, BackoffTime: 0.5}
	if v := violationsOf(r); v["fault-conservation"] == 0 {
		t.Errorf("leaked transient not caught: %v", v)
	}
	r.Stats = fault.Stats{Transients: 2, Retries: 2, BackoffTime: 0} // retries need backoff
	if v := violationsOf(r); v["fault-conservation"] == 0 {
		t.Errorf("zero-backoff retries not caught: %v", v)
	}
	r.Stats = fault.Stats{Kills: 1}
	if v := violationsOf(r); v["fault-conservation"] == 0 {
		t.Errorf("kill without kill class not caught: %v", v)
	}
	r.Killed = true
	if v := violationsOf(r); v["fault-conservation"] != 0 {
		t.Errorf("legitimate kill flagged: %v", v)
	}
}

func TestInvariantModelConformance(t *testing.T) {
	r := seededResult(2, func(clk *fakeClock, rec *trace.Recorder) {})
	r.Pred, r.Latency = 10, 100
	if v := violationsOf(r); v["model-conformance"] == 0 {
		t.Errorf("10x over the closed form not caught: %v", v)
	}
	r.Latency = 20
	if v := violationsOf(r); v["model-conformance"] != 0 {
		t.Errorf("2x flagged inside the envelope: %v", v)
	}
	r.Pred = 0 // no applicable form
	r.Latency = 1e9
	if v := violationsOf(r); v["model-conformance"] != 0 {
		t.Errorf("formless run flagged: %v", v)
	}
}

// TestRunOneGreenMatrix runs one fast spec per collective kind through
// the full differential + invariant harness, plus one faulty run and
// one kill-recovery run.
func TestRunOneGreenMatrix(t *testing.T) {
	specs := []string{
		"arch=knl kind=scatter algo=throttled:2 size=4096 procs=5 root=2 seed=11",
		"arch=knl kind=gather algo=parallel-write size=4096 procs=5 root=1 seed=12",
		"arch=broadwell kind=alltoall algo=pairwise size=2048 procs=4 root=0 seed=13",
		"arch=broadwell kind=allgather algo=ring-neighbor:3 size=2048 procs=7 root=0 seed=14",
		"arch=power8 kind=bcast algo=knomial-read:3 size=4096 procs=6 root=5 seed=15",
		"arch=power8 kind=reduce algo=knomial:2 size=2048 procs=5 root=3 seed=16",
		"arch=knl kind=scatter algo=parallel-read size=2048 procs=4 root=0 seed=17 skew=4 faults=moderate,seed=9",
		"arch=knl kind=gather algo=sequential-read size=1024 procs=4 root=0 seed=18 faults=kill=0.5,killop=2,seed=33 deadline=2000",
		"arch=knl kind=scatter algo=throttled:2 size=65536 procs=5 root=0 seed=19 ambient=32",
		"arch=power8 kind=bcast algo=knomial-read:3 size=65536 procs=6 root=0 seed=20 ambient=8 skew=2",
	}
	for _, line := range specs {
		sp, err := ParseSpec(line)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if _, err := RunOne(sp); err != nil {
			t.Errorf("%v", err)
		}
	}
}

// TestRunOneRegressions replays the reproducers of fixed bugs through
// the full differential + invariant harness; each must stay green.
func TestRunOneRegressions(t *testing.T) {
	for _, line := range []string{
		// Seed-1 corpus spec 296: the gather root, reading from every
		// rank for a full deadline without a heartbeat, was agreed dead
		// with the killed rank. The survivors shrank without it, and when
		// its reads finished it indexed the survivor communicator's
		// liveness board with its old rank (index out of range [8] with
		// length 7). It now exits as an excluded rank.
		"arch=knl kind=gather algo=sequential-read size=262144 procs=9 root=8 seed=1712302316 ambient=8 faults=kill=0.4,killop=3,seed=431 deadline=2000",
		// Seed-1 corpus spec 103, a single-node kill spec with skew=:
		// the recovery harness read neither skew field, so the skew was
		// dropped and the run replayed its unskewed twin exactly.
		"arch=power8 kind=reduce algo=knomial:2 size=4096 procs=3 root=2 seed=2115250952 skew=9 ambient=8 faults=kill=0.4,killop=3,seed=395 deadline=2000",
	} {
		sp, err := ParseSpec(line)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		res, err := RunOne(sp)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		if sp.Skew == 0 {
			continue
		}
		// Skew must reach the run: it may not replay its unskewed twin.
		twin := sp
		twin.Skew = 0
		tres, err := RunOne(twin)
		if err != nil {
			t.Errorf("unskewed twin: %v", err)
			continue
		}
		if res.Latency == tres.Latency && res.Rec.Len() == tres.Rec.Len() {
			t.Errorf("%s: skew ignored: latency %v us and %d trace events equal the unskewed twin's",
				sp, res.Latency, res.Rec.Len())
		}
	}
}

// TestRunOneCatchesWrongRoot seeds a deliberate mismatch: running
// bcast's reference against a different root's payload must fail the
// differential check — proof the oracle actually bites.
func TestRunOneCatchesWrongRoot(t *testing.T) {
	sends := [][]byte{{1, 2}, {3, 4}, {5, 6}}
	exp, err := payload.Reference(core.KindBcast, 3, 2, 0, sends)
	if err != nil {
		t.Fatal(err)
	}
	if d := payload.Diff(1, []byte{3, 4}, exp[1]); d == "" {
		t.Error("wrong-root payload passed the oracle")
	}
}

// TestRunOneAmbientSlowsAndDropsPrediction: an ambient spec must stay
// oracle-green (payloads are exact under any contention), run slower
// than its dedicated-machine twin, and carry no closed-form prediction
// (the forms model an idle machine).
func TestRunOneAmbientSlowsAndDropsPrediction(t *testing.T) {
	base, err := ParseSpec("arch=knl kind=scatter algo=throttled:4 size=65536 procs=8 root=0 seed=3")
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := RunOne(base)
	if err != nil {
		t.Fatal(err)
	}
	busy := base
	busy.Ambient = 32
	res, err := RunOne(busy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pred != 0 {
		t.Errorf("ambient run carries closed-form prediction %v, want none", res.Pred)
	}
	if quiet.Pred == 0 {
		t.Error("dedicated-machine twin lost its prediction")
	}
	if res.Latency <= quiet.Latency {
		t.Errorf("ambient 32 latency %v not above dedicated %v", res.Latency, quiet.Latency)
	}
}

// TestGenDrawsAmbient: the generator produces ambient specs on the
// single-node path only, and every draw stays valid.
func TestGenDrawsAmbient(t *testing.T) {
	n := 0
	for i := 0; i < 200; i++ {
		sp := Gen(11, i, GenOptions{Faults: true})
		if err := sp.Validate(); err != nil {
			t.Fatalf("index %d: %s: %v", i, sp, err)
		}
		if sp.Ambient > 0 {
			n++
		}
	}
	if n == 0 {
		t.Fatal("no ambient spec in 200 draws")
	}
	for i := 0; i < 50; i++ {
		if sp := Gen(11, i, GenOptions{Cluster: true}); sp.Ambient != 0 {
			t.Fatalf("cluster spec drew ambient: %s", sp)
		}
	}
}

func TestShrinkDropsAmbient(t *testing.T) {
	start := Spec{Arch: "knl", Kind: core.KindScatter, Algo: "throttled:4", Count: 4096,
		Procs: 8, Seed: 5, Ambient: 32}
	if err := start.Validate(); err != nil {
		t.Fatal(err)
	}
	min := Shrink(start, func(sp Spec) bool { return sp.Kind == core.KindScatter })
	if min.Ambient != 0 {
		t.Errorf("shrinker kept ambient: %s", min)
	}
}

func TestGenDeterministicAndValid(t *testing.T) {
	for i := 0; i < 200; i++ {
		a := Gen(7, i, GenOptions{Faults: true, Kills: true})
		b := Gen(7, i, GenOptions{Faults: true, Kills: true})
		if a != b {
			t.Fatalf("index %d: %s != %s", i, a, b)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("index %d: generated invalid spec %s: %v", i, a, err)
		}
	}
	// A different seed must move the corpus.
	same := 0
	for i := 0; i < 50; i++ {
		if Gen(1, i, GenOptions{}) == Gen(2, i, GenOptions{}) {
			same++
		}
	}
	if same == 50 {
		t.Error("seed does not affect the corpus")
	}
}

func TestShrinkMinimizes(t *testing.T) {
	start := Spec{Arch: "knl", Kind: core.KindScatter, Algo: "throttled:4", Count: 4096,
		Procs: 9, Root: 5, Seed: 77, Skew: 3, Faults: "light,seed=2"}
	if err := start.Validate(); err != nil {
		t.Fatal(err)
	}
	// Artificial failure: anything with Count >= 8 and Procs >= 3 fails.
	min := Shrink(start, func(sp Spec) bool { return sp.Count >= 8 && sp.Procs >= 3 })
	if min.Count != 8 || min.Procs != 3 {
		t.Errorf("not minimal: %s", min)
	}
	if min.Root != 0 || min.Skew != 0 || min.Faults != "" || min.Seed != 0 {
		t.Errorf("irrelevant dimensions kept: %s", min)
	}
	if err := min.Validate(); err != nil {
		t.Errorf("shrunk spec invalid: %v", err)
	}
}

// FuzzParseSpec: any line the parser accepts must round-trip through
// String and describe a runnable spec.
func FuzzParseSpec(f *testing.F) {
	f.Add("arch=knl kind=scatter algo=throttled:4 size=65536 procs=8 root=3 seed=17")
	f.Add("arch=power8 kind=reduce algo=knomial:2 size=64 procs=3 root=0 seed=0 skew=1.5 faults=light deadline=500")
	f.Add("arch=broadwell kind=alltoall algo=pairwise size=4K procs=4 root=0 seed=9")
	f.Fuzz(func(t *testing.T, line string) {
		sp, err := ParseSpec(line)
		if err != nil {
			return
		}
		back, err := ParseSpec(sp.String())
		if err != nil {
			t.Fatalf("String() of accepted spec rejected: %q -> %q: %v", line, sp.String(), err)
		}
		if back != sp {
			t.Fatalf("round trip drift: %s != %s", back, sp)
		}
	})
}

// FuzzDifferential: every generated spec must run green. This is the
// native-toolchain twin of cmd/camc-fuzz, so `go test -fuzz` can drive
// the same generator indefinitely.
func FuzzDifferential(f *testing.F) {
	for i := 0; i < 8; i++ {
		f.Add(int64(1), i)
	}
	f.Fuzz(func(t *testing.T, seed int64, i int) {
		sp := Gen(seed, i&0xffff, GenOptions{Faults: true, Kills: true})
		// Bound fuzz iterations to the fast sizes; the seeded corpus and
		// cmd/camc-fuzz cover the large ones.
		if sp.Count > 65536 {
			sp.Count = 65536
		}
		if _, err := RunOne(sp); err != nil {
			t.Fatal(err)
		}
	})
}

func TestClusterSpecRoundTrip(t *testing.T) {
	specs := []Spec{
		{Arch: "knl", Kind: core.KindGather, Algo: "throttled:4", Count: 4096, Procs: 4, Root: 9,
			Seed: 3, Nodes: 3, Topo: "fattree", Design: "leader"},
		{Arch: "broadwell", Kind: core.KindAlltoall, Algo: "pairwise", Count: 512, Procs: 2, Root: 0,
			Seed: 0, Nodes: 5, Topo: "dragonfly", Design: "shared"},
		{Arch: "power8", Kind: core.KindBcast, Algo: "direct-read", Count: 64, Procs: 3, Root: 5,
			Seed: 1, Nodes: 2, Topo: "dragonfly", Design: "flat"},
		// skew=, deadline= and kernel-level fault plans (including kill
		// plans) are supported on cluster specs and must round-trip.
		{Arch: "knl", Kind: core.KindGather, Algo: "throttled:2", Count: 2048, Procs: 3, Root: 4,
			Seed: 7, Skew: 9.5, Nodes: 3, Topo: "fattree", Design: "leader"},
		{Arch: "broadwell", Kind: core.KindReduce, Algo: "tuned", Count: 512, Procs: 2, Root: 0,
			Seed: 5, Faults: "kill=0.4,killop=3,seed=11", Deadline: 2000, Nodes: 4, Topo: "dragonfly", Design: "flat"},
		{Arch: "power8", Kind: core.KindAllgather, Algo: "ring-pt2pt", Count: 64, Procs: 2, Root: 0,
			Seed: 2, Faults: "light", Deadline: 5000, Nodes: 2, Topo: "fattree", Design: "shared"},
	}
	for _, sp := range specs {
		got, err := ParseSpec(sp.String())
		if err != nil {
			t.Fatalf("%s: %v", sp, err)
		}
		if got != sp {
			t.Errorf("round trip: got %s, want %s", got, sp)
		}
	}
	// Omitted topo/design default at parse time.
	sp, err := ParseSpec("arch=knl kind=bcast algo=direct-read size=64 procs=2 root=0 seed=1 nodes=2")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Topo != "fattree" || sp.Design != "leader" {
		t.Errorf("defaults not applied: topo=%q design=%q", sp.Topo, sp.Design)
	}
}

func TestClusterSpecErrors(t *testing.T) {
	base := "arch=knl kind=gather algo=parallel-write size=64 procs=2 root=0 seed=1"
	bad := []string{
		base + " nodes=1",                                         // needs >= 2 nodes
		base + " nodes=2 topo=torus",                              // unknown topology
		base + " nodes=2 design=ring",                             // unknown design
		base + " nodes=2 root=4",                                  // duplicate root key
		base + " topo=fattree",                                    // topo without nodes
		base + " design=leader",                                   // design without nodes
		base + " nodes=2 faults=straggler=0.5",                    // stragglers stay single-node
		base + " nodes=2 faults=moderate",                         // preset with a straggler class
		strings.Replace(base, "root=0", "root=4", 1) + " nodes=2", // world root out of range
	}
	for _, line := range bad {
		if _, err := ParseSpec(line); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
	// The straggler rejection must name the offending key, not hide
	// behind a blanket "no faults on clusters" message.
	_, err := ParseSpec(base + " nodes=2 faults=straggler=0.5")
	if err == nil || !strings.Contains(err.Error(), "straggler=") {
		t.Errorf("straggler rejection does not name the key: %v", err)
	}
}

// TestRunOneClusterGreen: the multi-node oracle path end to end — every
// design on a non-power-of-two world with a non-zero world root, both
// topologies, byte-checked against the reference executor with the
// full invariant registry (including the network invariants).
func TestRunOneClusterGreen(t *testing.T) {
	specs := []string{
		"arch=knl kind=gather algo=throttled:2 size=2048 procs=3 root=4 seed=11 nodes=3 topo=fattree design=leader",
		"arch=knl kind=bcast algo=direct-read size=2048 procs=2 root=1 seed=12 nodes=4 topo=dragonfly design=flat",
		"arch=broadwell kind=alltoall algo=pairwise size=512 procs=2 root=0 seed=13 nodes=3 topo=fattree design=shared",
		"arch=broadwell kind=allgather algo=ring-neighbor:2 size=512 procs=3 root=0 seed=14 nodes=2 topo=dragonfly design=leader",
		"arch=power8 kind=reduce algo=knomial:2 size=1024 procs=3 root=7 seed=15 nodes=3 topo=fattree design=shared",
		"arch=power8 kind=scatter algo=parallel-read size=1024 procs=2 root=3 seed=16 nodes=5 topo=dragonfly design=leader",
	}
	for _, line := range specs {
		sp, err := ParseSpec(line)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		res, err := RunOne(sp)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		if len(res.Links) == 0 {
			t.Errorf("%s: no link accounting on a cluster run", sp)
		}
		if res.Latency <= 0 {
			t.Errorf("%s: no time elapsed", sp)
		}
	}
}

func TestGenClusterDeterministicAndValid(t *testing.T) {
	opts := GenOptions{Cluster: true, Faults: true, Kills: true}
	designs := map[string]bool{}
	topos := map[string]bool{}
	skews, kills := 0, 0
	for i := 0; i < 100; i++ {
		a := Gen(5, i, opts)
		b := Gen(5, i, opts)
		if a != b {
			t.Fatalf("index %d: %s != %s", i, a, b)
		}
		if a.Nodes < 2 || a.Nodes > 6 || a.Procs < 2 || a.Procs > 5 {
			t.Fatalf("index %d: shape out of bounds: %s", i, a)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("index %d: generated invalid spec %s: %v", i, a, err)
		}
		designs[a.Design] = true
		topos[a.Topo] = true
		if a.Skew > 0 {
			skews++
		}
		if strings.HasPrefix(a.Faults, "kill=") {
			kills++
		}
	}
	if len(designs) != 3 || len(topos) != 2 {
		t.Errorf("corpus not diverse: designs %v topos %v", designs, topos)
	}
	// The cluster corpus must actually exercise the robustness
	// dimensions: start skew and kill plans both appear.
	if skews == 0 || kills == 0 {
		t.Errorf("corpus not diverse: %d skewed specs, %d kill plans in 100", skews, kills)
	}
}

func TestShrinkClusterMinimizes(t *testing.T) {
	start := Spec{Arch: "knl", Kind: core.KindGather, Algo: "throttled:4", Count: 4096,
		Procs: 5, Root: 13, Seed: 77, Nodes: 6, Topo: "dragonfly", Design: "shared"}
	if err := start.Validate(); err != nil {
		t.Fatal(err)
	}
	// Artificial failure that needs the fabric: anything multi-node fails.
	min := Shrink(start, func(sp Spec) bool { return sp.Nodes >= 2 })
	if min.Nodes != 2 || min.Procs != 2 || min.Count != 1 {
		t.Errorf("not minimal: %s", min)
	}
	if min.Design != "leader" || min.Topo != "fattree" || min.Root != 0 || min.Seed != 0 {
		t.Errorf("irrelevant dimensions kept: %s", min)
	}
	if err := min.Validate(); err != nil {
		t.Errorf("shrunk spec invalid: %v", err)
	}
	// A failure independent of the fabric must drop the cluster entirely.
	min = Shrink(start, func(sp Spec) bool { return sp.Count >= 8 })
	if min.Nodes != 0 || min.Topo != "" || min.Design != "" {
		t.Errorf("cluster dimension kept on a fabric-independent failure: %s", min)
	}
}
