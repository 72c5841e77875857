package measure

import (
	"errors"
	"math"
	"testing"

	"camc/internal/arch"
	"camc/internal/cluster"
	"camc/internal/core"
	"camc/internal/fault"
	"camc/internal/liveness"
	"camc/internal/trace"
)

var recoverMatrix = []struct {
	kind core.Kind
	spec string
}{
	{core.KindScatter, "throttled:4"},
	{core.KindGather, "throttled:4"},
	{core.KindBcast, "knomial-read:4"},
	{core.KindAllgather, "ring-source-read"},
	{core.KindAlltoall, "pairwise"},
}

// killCfg returns a fault config whose only class is permanent kills.
func killCfg(seed int64, prob float64) *fault.Config {
	return &fault.Config{Seed: seed, KillProb: prob, KillMaxOp: 6}
}

// TestRecoveredCleanRun: with no fault plan the recovery harness is just
// a checked run — nil verdict, full size, zero recovery latencies.
func TestRecoveredCleanRun(t *testing.T) {
	a := arch.Broadwell()
	for _, tc := range recoverMatrix {
		res, err := CollectiveRecovered(a, tc.kind, tc.spec, 16<<10, Options{Procs: 8})
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.kind, tc.spec, err)
		}
		if res.Err != nil || len(res.Failed) != 0 {
			t.Fatalf("%s/%s: clean run produced verdict %v (%v)", tc.kind, tc.spec, res.Err, res.Failed)
		}
		if res.Survivors != 8 {
			t.Fatalf("%s/%s: clean run shrank to %d", tc.kind, tc.spec, res.Survivors)
		}
		if res.FirstLatency <= 0 {
			t.Fatalf("%s/%s: non-positive latency %v", tc.kind, tc.spec, res.FirstLatency)
		}
		if res.DetectLatency != 0 || res.ShrinkLatency != 0 || res.RerunLatency != 0 {
			t.Fatalf("%s/%s: clean run has recovery latencies %+v", tc.kind, tc.spec, res)
		}
	}
}

// TestRecoveredKillAcrossMatrix is the heart of x9: under a kill plan
// every collective in the matrix detects the deaths within the deadline,
// agrees, shrinks, re-plans and re-runs with every byte of the survivor
// payload verified.
func TestRecoveredKillAcrossMatrix(t *testing.T) {
	a := arch.Broadwell()
	lcfg := liveness.Config{Deadline: 2_000, Poll: 5}
	for _, tc := range recoverMatrix {
		cfg := killCfg(11, 0.35)
		res, err := CollectiveRecovered(a, tc.kind, tc.spec, 16<<10,
			Options{Procs: 8, Fault: cfg, Liveness: &lcfg})
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.kind, tc.spec, err)
		}
		if res.Err == nil {
			t.Fatalf("%s/%s: kill plan produced no verdict (kills=%d)", tc.kind, tc.spec, res.Stats.Kills)
		}
		if !errors.Is(res.Err, liveness.ErrPeerDead) {
			t.Fatalf("%s/%s: verdict is not a peer-death: %v", tc.kind, tc.spec, res.Err)
		}
		if len(res.Failed) == 0 || res.Survivors != 8-len(res.Failed) {
			t.Fatalf("%s/%s: failed=%v survivors=%d", tc.kind, tc.spec, res.Failed, res.Survivors)
		}
		if int64(len(res.Failed)) != res.Stats.Kills {
			t.Fatalf("%s/%s: %d agreed failures but %d seeded kills", tc.kind, tc.spec, len(res.Failed), res.Stats.Kills)
		}
		for _, f := range res.Failed {
			if f == 0 {
				t.Fatalf("%s/%s: rank 0 in failed set %v", tc.kind, tc.spec, res.Failed)
			}
		}
		// Detection is bounded by the configured deadline plus the
		// agreement round's own deadline wait (a rank can die silently
		// right before agreement) and a few poll quanta of slack.
		bound := 2 * (float64(lcfg.Deadline) + 4*float64(lcfg.Poll))
		if res.DetectLatency <= 0 || res.DetectLatency > bound {
			t.Fatalf("%s/%s: detection latency %v outside (0, %v]", tc.kind, tc.spec, res.DetectLatency, bound)
		}
		if res.ShrinkLatency <= 0 || res.RerunLatency <= 0 {
			t.Fatalf("%s/%s: degenerate recovery latencies %+v", tc.kind, tc.spec, res)
		}
	}
}

// TestRecoveredRootDeath forces the root's death and checks the re-root:
// the harness must pick a survivor root and still verify payloads.
func TestRecoveredRootDeath(t *testing.T) {
	a := arch.Broadwell()
	lcfg := liveness.Config{Deadline: 2_000, Poll: 5}
	// Root rank 3: seeds are searched until 3 is among the killed, so the
	// scatter must re-root onto a survivor.
	for seed := int64(1); seed < 200; seed++ {
		cfg := killCfg(seed, 0.3)
		res, err := CollectiveRecovered(a, core.KindScatter, "throttled:4", 8<<10,
			Options{Procs: 8, Root: 3, Fault: cfg, Liveness: &lcfg})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rootDied := false
		for _, f := range res.Failed {
			if f == 3 {
				rootDied = true
			}
		}
		if rootDied {
			return // payloads verified inside CollectiveRecovered
		}
	}
	t.Fatal("no seed in [1,200) killed the root; test is vacuous")
}

// TestRecoveredDeterministic: the whole detect/agree/shrink/re-run cycle
// is a pure function of the seed.
func TestRecoveredDeterministic(t *testing.T) {
	a := arch.KNL()
	lcfg := liveness.Config{Deadline: 2_000, Poll: 5}
	run := func() RecoveryResult {
		res, err := CollectiveRecovered(a, core.KindAllgather, "ring-source-read", 8<<10,
			Options{Procs: 8, Fault: killCfg(21, 0.4), Liveness: &lcfg})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.FirstLatency != r2.FirstLatency || r1.DetectLatency != r2.DetectLatency ||
		r1.ShrinkLatency != r2.ShrinkLatency || r1.RerunLatency != r2.RerunLatency ||
		r1.Survivors != r2.Survivors || len(r1.Failed) != len(r2.Failed) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", r1, r2)
	}
}

// TestRecoveredTracedRecordsLiveness: the traced variant emits events in
// the liveness category (kill, detection, agreement, shrink) without
// changing the measured recovery.
func TestRecoveredTracedRecordsLiveness(t *testing.T) {
	a := arch.Broadwell()
	lcfg := liveness.Config{Deadline: 2_000, Poll: 5}
	opts := Options{Procs: 8, Fault: killCfg(11, 0.35), Liveness: &lcfg}
	plain, err := CollectiveRecovered(a, core.KindBcast, "knomial-read:4", 8<<10, opts)
	if err != nil {
		t.Fatal(err)
	}
	traced, rec, err := CollectiveRecoveredTraced(a, core.KindBcast, "knomial-read:4", 8<<10, opts)
	if err != nil {
		t.Fatal(err)
	}
	if traced.DetectLatency != plain.DetectLatency || traced.RerunLatency != plain.RerunLatency {
		t.Fatalf("tracing changed the recovery: %+v vs %+v", traced, plain)
	}
	want := map[string]bool{"rank_killed": false, "agree": false, "shrink": false}
	for _, e := range rec.Events() {
		if e.Cat == trace.CatLiveness {
			if _, ok := want[e.Name]; ok {
				want[e.Name] = true
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("no %q event in the liveness category", name)
		}
	}
}

// TestRecoveredMatchesFreshRun is the metamorphic property: the payload
// a shrink-then-rerun leaves in the survivors' buffers is exactly what a
// fresh communicator of the survivor count would produce — which is what
// the harness verifies against. Here we additionally pin that the
// re-planned algorithm parameters match a direct Replan at the survivor
// count.
func TestRecoveredMatchesFreshRun(t *testing.T) {
	a := arch.Broadwell()
	lcfg := liveness.Config{Deadline: 2_000, Poll: 5}
	res, err := CollectiveRecovered(a, core.KindScatter, "throttled:6", 8<<10,
		Options{Procs: 8, Fault: killCfg(11, 0.35), Liveness: &lcfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil {
		t.Fatal("kill plan produced no deaths; metamorphic check is vacuous")
	}
	want, rerr := core.Replan(core.KindScatter, "throttled:6", res.Survivors)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if res.Algorithm != want.Name {
		t.Fatalf("recovered run used %q, direct replan says %q", res.Algorithm, want.Name)
	}
	// And a fresh checked run at the survivor count with the re-planned
	// algorithm passes its own verification (same pattern function).
	if _, _, err := CollectiveChecked(a, core.KindScatter, want.Run, 8<<10, Options{Procs: res.Survivors}); err != nil {
		t.Fatalf("fresh run at survivor count: %v", err)
	}
}

// TestRecoveredRejectsBadDeadline: a liveness config whose deadline is
// not a finite time above its own poll quantum is rejected with an
// error at the harness boundary, not raised as a rank panic inside the
// recovery run. The first row is the reproducer that used to panic with
// "liveness: dead ranks [1]" in rank0.
func TestRecoveredRejectsBadDeadline(t *testing.T) {
	knl := arch.KNL()
	kill := &fault.Config{KillProb: 0.5, KillMaxOp: 1, Seed: 3}
	gather, err := core.LookupAlgorithm(core.KindGather, "binomial-shm")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  liveness.Config
		ok   bool
	}{
		{"deadline 1 below the default poll", liveness.Config{Deadline: 1}, false},
		{"deadline at the default poll", liveness.Config{Deadline: 10}, false},
		{"deadline at its own poll", liveness.Config{Deadline: 5, Poll: 5}, false},
		{"deadline below its own poll", liveness.Config{Deadline: 50, Poll: 60}, false},
		{"deadline NaN", liveness.Config{Deadline: math.NaN()}, false},
		{"deadline +Inf", liveness.Config{Deadline: math.Inf(1)}, false},
		{"poll +Inf", liveness.Config{Deadline: 100, Poll: math.Inf(1)}, false},
		{"deadline above its own poll", liveness.Config{Deadline: 50, Poll: 5}, true},
		{"defaults", liveness.Config{}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			opts := Options{Procs: 8, Fault: kill, Liveness: &cfg}
			_, err := CollectiveRecovered(knl, core.KindGather, "binomial-shm", 4096, opts)
			if (err == nil) != tc.ok {
				t.Fatalf("CollectiveRecovered: err = %v, want ok %v", err, tc.ok)
			}
			_, _, err = CollectiveChecked(knl, core.KindGather, gather.Run, 4096, Options{Procs: 8, Liveness: &cfg})
			if (err == nil) != tc.ok {
				t.Fatalf("CollectiveChecked: err = %v, want ok %v", err, tc.ok)
			}
			_, err = ClusterRecovered(knl, core.KindGather, cluster.DesignLeader, "tuned", 64,
				ClusterOptions{Nodes: 2, PPN: 2, Liveness: &cfg})
			if (err == nil) != tc.ok {
				t.Fatalf("ClusterRecovered: err = %v, want ok %v", err, tc.ok)
			}
		})
	}
}
