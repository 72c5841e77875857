package cluster

import (
	"reflect"
	"testing"

	"camc/internal/core"
)

// TestShrunkSuccessorTieBreak pins the documented deterministic
// re-election rule: a node's successor is the lowest-world-rank
// survivor on that node, which is also its new local rank 0. No votes,
// no timestamps — the rule is a pure function of the failed set, so
// every survivor derives the same leader table independently.
func TestShrunkSuccessorTieBreak(t *testing.T) {
	cl := knlCluster(3, 3) // world 0..8, node 1 = {3, 4, 5}
	cases := []struct {
		name    string
		failed  []int
		leader1 int  // Leaders[1]
		orphan1 bool // Orphaned[1]
	}{
		// Leader of node 1 (world 3, its local 0) dies: successor is 4,
		// the lowest surviving world rank, and the node is orphaned.
		{"leader", []int{3}, 4, true},
		// A member dies: the incumbent leader 3 stays, not orphaned.
		{"member", []int{4}, 3, false},
		// Leader and first successor both die: next-lowest survivor 5.
		{"leader+member", []int{3, 4}, 5, true},
	}
	for _, tc := range cases {
		sh := buildShrunkTable(cl, tc.failed, core.KindGather, 0)
		if sh.Leaders[1] != tc.leader1 {
			t.Errorf("%s: Leaders[1] = %d, want %d (lowest-world-rank survivor)", tc.name, sh.Leaders[1], tc.leader1)
		}
		if sh.Orphaned[1] != tc.orphan1 {
			t.Errorf("%s: Orphaned[1] = %v, want %v", tc.name, sh.Orphaned[1], tc.orphan1)
		}
		// The successor is always the node's new local rank 0.
		if got := sh.OldWorld[sh.Prefix[1]]; got != tc.leader1 {
			t.Errorf("%s: new local 0 on node 1 is world %d, leader is %d", tc.name, got, tc.leader1)
		}
	}
}

// TestShrunkWholeNodeLoss: losing every rank of a node removes it from
// the alive-node list without perturbing the numbering of the others.
func TestShrunkWholeNodeLoss(t *testing.T) {
	cl := knlCluster(3, 3)
	sh := buildShrunkTable(cl, []int{3, 4, 5}, core.KindAllgather, 0)
	if sh.NewSize != 6 {
		t.Fatalf("NewSize = %d, want 6", sh.NewSize)
	}
	if !reflect.DeepEqual(sh.AliveNodes, []int{0, 2}) {
		t.Fatalf("AliveNodes = %v, want [0 2]", sh.AliveNodes)
	}
	if sh.Leaders[1] != -1 || sh.NodeIdx[1] != -1 {
		t.Fatalf("lost node kept a leader (%d) or index (%d)", sh.Leaders[1], sh.NodeIdx[1])
	}
	if sh.SurvivorsOn(1) != 0 || sh.SurvivorsOn(0) != 3 || sh.SurvivorsOn(2) != 3 {
		t.Fatalf("survivor counts wrong: %v", sh.Prefix)
	}
	// Node-major: node 2's survivors renumber contiguously after node 0's.
	want := []int{0, 1, 2, 6, 7, 8}
	if !reflect.DeepEqual(sh.OldWorld, want) {
		t.Fatalf("OldWorld = %v, want %v", sh.OldWorld, want)
	}
	for id := range sh.OldWorld {
		if sh.NewWorld[sh.OldWorld[id]] != id {
			t.Fatalf("NewWorld is not the inverse of OldWorld at %d", id)
		}
	}
	if sh.NodeOfNew(3) != 2 {
		t.Fatalf("NodeOfNew(3) = %d, want 2", sh.NodeOfNew(3))
	}
	// NodeOfNew is the original node of the id's world rank, on this
	// table and on a ragged one (node sizes 3, 1, 2, 3).
	cl4 := knlCluster(4, 3)
	ragged := buildShrunkTable(cl4, []int{4, 5, 8}, core.KindGather, 0)
	for _, tbl := range []*Shrunk{sh, ragged} {
		for id, w := range tbl.OldWorld {
			if got, want := tbl.NodeOfNew(id), cl4.NodeOf(w); got != want {
				t.Fatalf("failed %v: NodeOfNew(%d) = %d, want NodeOf(%d) = %d", tbl.Failed, id, got, w, want)
			}
		}
	}
}

// TestShrunkRootHandling: a rooted kind's dead root re-roots to new id
// 0 (the same successor rule), a surviving root keeps its new id, and
// the root leading a node makes that node's orphanhood follow the
// root's fate rather than local rank 0's.
func TestShrunkRootHandling(t *testing.T) {
	cl := knlCluster(3, 3)
	// Root 4 leads node 1 in the original attempt (rooted kind). If a
	// MEMBER of the root's node — its local rank 0, world 3 — dies, the
	// node is NOT orphaned: its attempt leader was the root, world 4.
	sh := buildShrunkTable(cl, []int{3}, core.KindScatter, 4)
	if sh.Orphaned[1] {
		t.Fatal("root-led node marked orphaned by a member death")
	}
	if sh.NewRoot != sh.NewWorld[4] {
		t.Fatalf("NewRoot = %d, want surviving root's new id %d", sh.NewRoot, sh.NewWorld[4])
	}
	// The root itself dies: the node is orphaned and the re-run re-roots
	// to new id 0.
	sh = buildShrunkTable(cl, []int{4}, core.KindScatter, 4)
	if !sh.Orphaned[1] {
		t.Fatal("dead root did not orphan its node")
	}
	if sh.NewRoot != 0 {
		t.Fatalf("NewRoot = %d, want 0 after root death", sh.NewRoot)
	}
	// Non-rooted kinds ignore the root argument: every node's attempt
	// leader is its local rank 0, so world 4's death orphans nothing.
	sh = buildShrunkTable(cl, []int{4}, core.KindAllgather, 4)
	if sh.Orphaned[1] {
		t.Fatal("non-rooted kind treated the root argument as a leader")
	}
}

// TestShrunkDeterministic: the table is a pure function of its inputs —
// the agreement protocol relies on every survivor deriving it
// independently and identically.
func TestShrunkDeterministic(t *testing.T) {
	cl := knlCluster(4, 2)
	a := buildShrunkTable(cl, []int{1, 4, 5}, core.KindReduce, 6)
	b := buildShrunkTable(cl, []int{1, 4, 5}, core.KindReduce, 6)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same inputs, different tables:\n%+v\n%+v", a, b)
	}
}

// TestShrunkFullTableIsIdentity: with no failures the table Lookup
// hands the leader designs is the identity, so they address the full
// cluster exactly as world ranks and node ids do.
func TestShrunkFullTableIsIdentity(t *testing.T) {
	cl := knlCluster(5, 3)
	sh := buildShrunkTable(cl, nil, core.KindBcast, 7)
	if len(sh.Failed) != 0 || sh.NewSize != 15 || sh.NewRoot != 7 {
		t.Fatalf("Failed=%v NewSize=%d NewRoot=%d, want none, 15, 7", sh.Failed, sh.NewSize, sh.NewRoot)
	}
	for n := 0; n < cl.NumNodes; n++ {
		if sh.Prefix[n] != n*cl.PPN || sh.SurvivorsOn(n) != cl.PPN || sh.AliveNodes[n] != n || sh.NodeIdx[n] != n {
			t.Fatalf("node %d: Prefix=%d SurvivorsOn=%d AliveNodes=%d NodeIdx=%d", n,
				sh.Prefix[n], sh.SurvivorsOn(n), sh.AliveNodes[n], sh.NodeIdx[n])
		}
	}
	for w := 0; w < cl.WorldSize(); w++ {
		if sh.OldWorld[w] != w || sh.NewWorld[w] != w || sh.NodeOfNew(w) != cl.NodeOf(w) {
			t.Fatalf("world %d: OldWorld=%d NewWorld=%d NodeOfNew=%d", w, sh.OldWorld[w], sh.NewWorld[w], sh.NodeOfNew(w))
		}
	}
}
