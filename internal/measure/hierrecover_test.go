package measure

import (
	"testing"

	"camc/internal/arch"
	"camc/internal/cluster"
	"camc/internal/core"
	"camc/internal/liveness"
	"camc/internal/trace"
)

var clusterKinds = []core.Kind{core.KindBcast, core.KindGather, core.KindScatter,
	core.KindAllgather, core.KindAlltoall, core.KindReduce}

// TestClusterRecoveredClean: with no kills armed, the recovery harness
// is a checked cluster run — no verdict, full world, zero recovery
// latencies (the detector is armed but never fires).
func TestClusterRecoveredClean(t *testing.T) {
	prof := arch.KNL()
	res, err := ClusterRecovered(prof, core.KindGather, cluster.DesignLeader, "tuned", 64,
		ClusterOptions{Nodes: 3, PPN: 3, Root: 0, CopyData: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || len(res.Failed) != 0 {
		t.Fatalf("clean run produced verdict %v (%v)", res.Err, res.Failed)
	}
	if res.Survivors != 9 {
		t.Fatalf("clean run shrank to %d", res.Survivors)
	}
	if res.FirstLatency <= 0 {
		t.Fatalf("non-positive latency %v", res.FirstLatency)
	}
	if res.DetectLatency != 0 || res.ShrinkLatency != 0 || res.ElectLatency != 0 || res.RerunLatency != 0 {
		t.Fatalf("clean run has recovery latencies %+v", res)
	}
}

// TestClusterRecoveredSweep is the heart of the world-level recovery
// path: every kind × every attempt design × three death scenarios
// (member, leader, whole node). Each cell detects, agrees, shrinks both
// tiers, re-elects, and re-runs with every survivor byte verified
// inside the harness; here we additionally pin the failed set, the
// survivor count, the latency signs, and that fabric residue only ever
// targets the dead.
func TestClusterRecoveredSweep(t *testing.T) {
	prof := arch.KNL()
	scenarios := []struct {
		name  string
		kills []cluster.Kill
	}{
		{"member", []cluster.Kill{{World: 4, Op: 1}}},
		{"leader", []cluster.Kill{{World: 3, Op: 1}}},
		{"node", []cluster.Kill{{World: 3, Op: 1}, {World: 4, Op: 1}, {World: 5, Op: 1}}},
	}
	for _, kind := range clusterKinds {
		for _, design := range cluster.Designs() {
			for _, sc := range scenarios {
				res, err := ClusterRecovered(prof, kind, design, "tuned", 64,
					ClusterOptions{Nodes: 3, PPN: 3, Root: 0, CopyData: true, Kills: sc.kills})
				if err != nil {
					t.Errorf("%s/%s/%s: %v", kind, design, sc.name, err)
					continue
				}
				if len(res.Failed) != len(sc.kills) {
					t.Errorf("%s/%s/%s: failed=%v want %d deaths", kind, design, sc.name, res.Failed, len(sc.kills))
					continue
				}
				if res.Survivors != 9-len(sc.kills) {
					t.Errorf("%s/%s/%s: survivors=%d", kind, design, sc.name, res.Survivors)
				}
				if res.DetectLatency <= 0 || res.ShrinkLatency <= 0 || res.ElectLatency <= 0 || res.RerunLatency <= 0 {
					t.Errorf("%s/%s/%s: degenerate latencies detect=%v shrink=%v elect=%v rerun=%v",
						kind, design, sc.name, res.DetectLatency, res.ShrinkLatency, res.ElectLatency, res.RerunLatency)
				}
				dead := map[int]bool{}
				for _, f := range res.Failed {
					dead[f] = true
				}
				for _, rs := range res.Residue {
					if !dead[rs.To] {
						t.Errorf("%s/%s/%s: residue %d->%d targets a survivor", kind, design, sc.name, rs.From, rs.To)
					}
				}
			}
		}
	}
}

// TestClusterRecoveredWorldRootDeath kills the collective's world root
// on a remote node: the re-run must re-root deterministically onto new
// id 0 and still verify byte-level (the harness panics the run
// otherwise; we pin the re-root itself here).
func TestClusterRecoveredWorldRootDeath(t *testing.T) {
	prof := arch.Broadwell()
	res, err := ClusterRecovered(prof, core.KindScatter, cluster.DesignLeader, "tuned", 256,
		ClusterOptions{Nodes: 4, PPN: 2, Root: 5, CopyData: true,
			Kills: []cluster.Kill{{World: 5, Op: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 || res.Failed[0] != 5 {
		t.Fatalf("failed=%v, want [5]", res.Failed)
	}
	if res.NewRoot != 0 {
		t.Fatalf("NewRoot=%d, want 0 (successor rule)", res.NewRoot)
	}
	if res.OldWorld[res.NewRoot] != 0 {
		t.Fatalf("re-run root is original world %d, want 0", res.OldWorld[res.NewRoot])
	}
}

// TestClusterRecoveredDeterministic: the full cross-fabric cycle —
// detection through re-elected leader table through re-run — is a pure
// function of the configuration. Both runs' re-run payloads are checked
// against the same reference inside the harness.
func TestClusterRecoveredDeterministic(t *testing.T) {
	prof := arch.KNL()
	opts := ClusterOptions{Nodes: 3, PPN: 3, Root: 2, CopyData: true,
		Kills: []cluster.Kill{{World: 3, Op: 1}}}
	run := func() ClusterRecoveryResult {
		res, err := ClusterRecovered(prof, core.KindAllgather, cluster.DesignShared, "tuned", 128, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.DetectLatency != r2.DetectLatency || r1.ShrinkLatency != r2.ShrinkLatency ||
		r1.ElectLatency != r2.ElectLatency || r1.RerunLatency != r2.RerunLatency {
		t.Fatalf("same config diverged:\n%+v\n%+v", r1.RecoveryResult, r2.RecoveryResult)
	}
}

// TestClusterRecoveredTracedElection: the traced variant records the
// whole pipeline — the death, the agreement, the shrink, the election
// span and the orphaned node's intra-node re-publication — without
// changing the measured recovery, and the event stream is byte-stable
// across repeated traced runs (the determinism that makes re-election
// traces comparable across -j worker counts in the bench harness).
func TestClusterRecoveredTracedElection(t *testing.T) {
	prof := arch.KNL()
	// Kill node 1's leader so the election includes an orphan
	// re-publication, not just the credential exchange.
	opts := ClusterOptions{Nodes: 3, PPN: 3, Root: 0, CopyData: true,
		Kills: []cluster.Kill{{World: 3, Op: 1}}}
	plain, err := ClusterRecovered(prof, core.KindGather, cluster.DesignLeader, "tuned", 64, opts)
	if err != nil {
		t.Fatal(err)
	}
	traced, rec, err := ClusterRecoveredTraced(prof, core.KindGather, cluster.DesignLeader, "tuned", 64, opts)
	if err != nil {
		t.Fatal(err)
	}
	if traced.DetectLatency != plain.DetectLatency || traced.ElectLatency != plain.ElectLatency ||
		traced.RerunLatency != plain.RerunLatency {
		t.Fatalf("tracing changed the recovery: %+v vs %+v", traced.RecoveryResult, plain.RecoveryResult)
	}
	want := map[string]bool{"rank_killed": false, "agree": false, "shrink": false,
		"elect": false, "leader_elect": false}
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
	// Byte-identical re-election trace on a repeat run.
	_, rec2, err := ClusterRecoveredTraced(prof, core.KindGather, cluster.DesignLeader, "tuned", 64, opts)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := rec.Events(), rec2.Events()
	if len(e1) != len(e2) {
		t.Fatalf("traced runs diverged: %d vs %d events", len(e1), len(e2))
	}
	for i := range e1 {
		a, b := e1[i], e2[i]
		if a.Kind != b.Kind || a.Cat != b.Cat || a.Name != b.Name || a.Lane != b.Lane ||
			a.Start != b.Start || a.End != b.End {
			t.Fatalf("event %d diverged: %+v vs %+v", i, a, b)
		}
	}
}

// TestClusterRecoveredLeaderCostlierAtScale is the PR's acceptance
// case: killing a node leader at 256 nodes completes the full
// detect + elect + shrink + re-run cycle with the payload verified,
// and the leader death costs measurably more than a member death on
// the same shape (the orphaned node re-runs the leader-phase address
// exchange and its successor pays the coordinator challenge).
func TestClusterRecoveredLeaderCostlierAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-rank fabric runs take ~1s wall; skipped in -short")
	}
	prof := arch.KNL()
	lcfg := liveness.Config{Deadline: 2000, Poll: 10}
	run := func(world int) ClusterRecoveryResult {
		res, err := ClusterRecovered(prof, core.KindGather, cluster.DesignLeader, "tuned", 64,
			ClusterOptions{Nodes: 256, PPN: 4, Root: 0, CopyData: true, Liveness: &lcfg,
				Kills: []cluster.Kill{{World: world, Op: 1}}})
		if err != nil {
			t.Fatalf("kill world %d @256 nodes: %v", world, err)
		}
		if res.Survivors != 1023 {
			t.Fatalf("kill world %d: survivors=%d, want 1023", world, res.Survivors)
		}
		if res.DetectLatency <= 0 || res.ElectLatency <= 0 || res.ShrinkLatency <= 0 || res.RerunLatency <= 0 {
			t.Fatalf("kill world %d: degenerate latencies %+v", world, res.RecoveryResult)
		}
		return res
	}
	leader := run(4) // node 1's leader
	member := run(5) // node 1's second rank
	t.Logf("leader@256: detect=%.1f shrink=%.1f elect=%.1f rerun=%.1f", leader.DetectLatency,
		leader.ShrinkLatency, leader.ElectLatency, leader.RerunLatency)
	t.Logf("member@256: detect=%.1f shrink=%.1f elect=%.1f rerun=%.1f", member.DetectLatency,
		member.ShrinkLatency, member.ElectLatency, member.RerunLatency)
	lsum := leader.DetectLatency + leader.ShrinkLatency + leader.ElectLatency
	msum := member.DetectLatency + member.ShrinkLatency + member.ElectLatency
	if lsum <= msum {
		t.Errorf("leader kill (%.1fus) not costlier than member kill (%.1fus)", lsum, msum)
	}
}

// TestClusterRecoveredNoFalsePositives: a live sender mid-transfer on a
// contended link can be silent for longer than the detector deadline —
// one γ_net-inflated chunk on a hot incast link sleeps past it. The
// heartbeat lease (liveness.Board.Lease, published by the fabric for
// every known-length busy period) must keep such ranks from being
// judged stale: with an aggressively short deadline and a large flat
// incast, the agreed failed set still contains exactly the killed rank.
// Without the lease this run poisons the agreement with live ranks and
// the shrink blows up on a "dead" survivor.
func TestClusterRecoveredNoFalsePositives(t *testing.T) {
	prof := arch.KNL()
	lcfg := liveness.Config{Deadline: 60, Poll: 5}
	res, err := ClusterRecovered(prof, core.KindGather, cluster.DesignFlat, "tuned", 65536,
		ClusterOptions{Nodes: 8, PPN: 4, Topo: "fattree", Root: 0, CopyData: true,
			Liveness: &lcfg, Kills: []cluster.Kill{{World: 5, Op: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 || res.Failed[0] != 5 {
		t.Fatalf("agreed failed set %v, want exactly [5] (false positives?)", res.Failed)
	}
	if res.Survivors != 31 {
		t.Fatalf("survivors = %d, want 31", res.Survivors)
	}
}

// TestClusterRecoveredSkewAndFaults: start skew and a kernel-level
// fault plan (no kills) ride along with the armed detector on a
// cluster run without tripping it.
func TestClusterRecoveredSkewAndFaults(t *testing.T) {
	prof := arch.Broadwell()
	res, err := ClusterRecovered(prof, core.KindAlltoall, cluster.DesignFlat, "tuned", 128,
		ClusterOptions{Nodes: 3, PPN: 2, Root: 0, CopyData: true,
			SkewSeed: 7, MaxSkew: 15})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("skewed clean run produced verdict %v", res.Err)
	}
	if res.FirstLatency <= 0 {
		t.Fatalf("non-positive latency %v", res.FirstLatency)
	}
}
