package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/kernel"
	"camc/internal/payload"
)

// TestClusterCollectivesMatchOracle runs every kind under every design,
// flat-shm included, on materialized payload and checks the delivered
// bytes against the payload reference executor — including
// non-power-of-two node counts, a non-zero root, and both topologies.
func TestClusterCollectivesMatchOracle(t *testing.T) {
	cases := []struct {
		nodes, ppn, root int
		topo             string
	}{
		{2, 3, 0, "fattree"},
		{3, 2, 4, "fattree"}, // non-pow2 nodes, mid-world root
		{4, 2, 7, "dragonfly"},
		{5, 3, 11, "dragonfly"}, // non-pow2, root on last node
	}
	count := int64(96)
	for _, tc := range cases {
		for _, kind := range core.SpecKinds() {
			for _, design := range append(Designs(), DesignFlatShm) {
				name := fmt.Sprintf("%s/%s/n%dp%dr%d-%s", kind, design, tc.nodes, tc.ppn, tc.root, tc.topo)
				t.Run(name, func(t *testing.T) {
					cl := New(Config{
						Arch: arch.KNL(), NumNodes: tc.nodes, PPN: tc.ppn,
						Topo: tc.topo, SwitchRadix: 2, CopyData: true,
					})
					coll, err := Lookup(cl, kind, design, "")
					if err != nil {
						t.Fatal(err)
					}
					world := cl.WorldSize()
					sendSize, recvSize, err := payload.BufSizes(kind, world, count)
					if err != nil {
						t.Fatal(err)
					}
					sends := make([][]byte, world)
					sendA := make([]kernel.Addr, world)
					recvA := make([]kernel.Addr, world)
					for w := 0; w < world; w++ {
						p := cl.WorldRank(w).OS
						sendA[w] = p.Alloc(sendSize)
						recvA[w] = p.Alloc(recvSize)
						sends[w] = payload.Pattern(kind, world, w, count)
						p.WriteAt(sendA[w], sends[w])
						p.FillAt(recvA[w], recvSize, 0xEE)
					}
					if _, err := cl.Run(func(r *Rank) {
						coll.Run(r, Args{Send: sendA[r.World], Recv: recvA[r.World], Count: count, Root: tc.root})
					}); err != nil {
						t.Fatal(err)
					}
					for w := 0; w < world; w++ {
						if got := cl.WorldRank(w).OS.Bytes(sendA[w], sendSize); !bytes.Equal(got, sends[w]) {
							t.Errorf("rank %d: send buffer mutated", w)
						}
					}
					if err := payload.Verify(kind, world, count, tc.root, sends, func(w int) []byte {
						return cl.WorldRank(w).OS.Bytes(recvA[w], recvSize)
					}); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

// TestClusterCollectivesDeterministic: same shape, same latency, for a
// representative design of each kind.
func TestClusterCollectivesDeterministic(t *testing.T) {
	for _, kind := range core.SpecKinds() {
		for _, design := range Designs() {
			lat := func() float64 {
				cl := New(Config{Arch: arch.Broadwell(), NumNodes: 3, PPN: 4})
				return runColl(t, cl, kind, design, "", Args{Count: 8 << 10, Root: 5})
			}
			if a, b := lat(), lat(); a != b {
				t.Fatalf("%s/%s nondeterministic: %g vs %g", kind, design, a, b)
			}
		}
	}
}

// TestLeaderBeatsFlatAtScale: the headline claim extended to the fabric
// model — with enough nodes, the two-level design wins for the rooted
// kinds because it moves O(nodes) network flows instead of O(world).
// Reduce is excluded: under node-major rank placement a flat binomial
// reduce is already implicitly hierarchical (its low-stride rounds stay
// on-node over shm, and only the top log(nodes) rounds cross the
// fabric, one flow per node pair), so the leader design has nothing
// left to save there.
func TestLeaderBeatsFlatAtScale(t *testing.T) {
	for _, kind := range []core.Kind{core.KindBcast, core.KindGather, core.KindScatter} {
		lat := func(design Design) float64 {
			return runColl(t, knlCluster(8, 16), kind, design, "", Args{Count: 16 << 10})
		}
		flat, leader := lat(DesignFlat), lat(DesignLeader)
		if leader >= flat {
			t.Errorf("%s: leader %.0fus not below flat %.0fus at 8x16", kind, leader, flat)
		}
	}
}

func TestLookupErrors(t *testing.T) {
	cl := New(Config{Arch: arch.KNL(), NumNodes: 2, PPN: 2})
	if _, err := Lookup(cl, core.KindBcast, Design("ring"), ""); err == nil {
		t.Fatal("unknown design accepted")
	}
	if _, err := Lookup(cl, core.KindBcast, DesignLeader, "nope"); err == nil {
		t.Fatal("unknown intra spec accepted")
	}
	if _, err := Lookup(cl, core.KindGather, DesignLeader, "throttled:64"); err != nil {
		t.Fatalf("replan should clamp the throttle to PPN: %v", err)
	}
}

// TestLookupFlatShm: flat-shm resolves under its own name and design but
// stays out of Designs(), which x11 and the checker iterate.
func TestLookupFlatShm(t *testing.T) {
	cl := New(Config{Arch: arch.KNL(), NumNodes: 2, PPN: 2})
	coll, err := Lookup(cl, core.KindGather, DesignFlatShm, "")
	if err != nil {
		t.Fatal(err)
	}
	if coll.Name != "flat-shm" || coll.Design != DesignFlatShm {
		t.Fatalf("flat-shm resolved as name %q design %q", coll.Name, coll.Design)
	}
	if got := fmt.Sprint(Designs()); got != "[flat leader shared]" {
		t.Fatalf("Designs() = %s, want [flat leader shared]", got)
	}
}
