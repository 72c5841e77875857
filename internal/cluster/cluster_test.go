package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/kernel"
	"camc/internal/payload"
)

func knlCluster(nodes, ppn int) *Cluster {
	return New(Config{Arch: arch.KNL(), NumNodes: nodes, PPN: ppn})
}

func TestNetworkTransfer(t *testing.T) {
	cl := knlCluster(2, 1)
	done, err := cl.Run(func(r *Rank) {
		const size = 1 << 20
		buf := r.Alloc(size)
		switch r.World {
		case 0:
			r.NetSend(1, buf, size)
		case 1:
			r.NetRecv(0, buf, size)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 MiB at 12.5 GB/s ≈ 84us per side plus latency; receive side
	// serializes after the inject, so total is roughly 2x + latency.
	if done < 80 || done > 400 {
		t.Fatalf("1M network transfer = %.1fus, outside plausible range", done)
	}
}

func TestNetworkReceiverSerializes(t *testing.T) {
	// Two senders into one receiver must take about twice as long as one.
	lat := func(senders int) float64 {
		cl := knlCluster(senders+1, 1)
		done, err := cl.Run(func(r *Rank) {
			const size = 4 << 20
			buf := r.Alloc(size * int64(senders))
			if r.World == 0 {
				for s := 1; s <= senders; s++ {
					r.NetRecv(s, buf+kernel.Addr(int64(s-1)*size), size)
				}
			} else {
				r.NetSend(0, buf, size)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	one := lat(1)
	two := lat(2)
	// Injections overlap across sender nodes, but the receiver drains
	// serially: the second message adds one full drain time (4 MiB at
	// 12.5 GB/s ≈ 335us).
	drain := 4 * float64(1<<20) / 12.5e3
	if two-one < 0.9*drain {
		t.Fatalf("2 senders %.0fus vs 1 sender %.0fus: second drain (%.0fus) not serialized", two, one, drain)
	}
}

func TestWorldRankMapping(t *testing.T) {
	cl := knlCluster(3, 4)
	if cl.WorldSize() != 12 {
		t.Fatalf("world size = %d", cl.WorldSize())
	}
	seen := make(map[int]bool)
	_, err := cl.Run(func(r *Rank) {
		if r.World != r.Node*4+r.ID {
			t.Errorf("world rank %d != node %d * 4 + local %d", r.World, r.Node, r.ID)
		}
		seen[r.World] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 12 {
		t.Fatalf("only %d world ranks ran", len(seen))
	}
}

// runColl times one dataless cluster collective, each rank's buffers
// laid out by payload.BufSizes; a's Send and Recv are filled in per rank.
func runColl(t *testing.T, cl *Cluster, kind core.Kind, design Design, spec string, a Args) float64 {
	t.Helper()
	coll, err := Lookup(cl, kind, design, spec)
	if err != nil {
		t.Fatal(err)
	}
	sendLen, recvLen, err := payload.BufSizes(kind, cl.WorldSize(), a.Count)
	if err != nil {
		t.Fatal(err)
	}
	done, err := cl.Run(func(r *Rank) {
		a := a
		a.Send = r.Alloc(sendLen)
		a.Recv = r.Alloc(recvLen)
		coll.Run(r, a)
	})
	if err != nil {
		t.Fatal(err)
	}
	return done
}

func TestTwoLevelGatherCompletes(t *testing.T) {
	for _, nodes := range []int{2, 4} {
		done := runColl(t, knlCluster(nodes, 8), core.KindGather, DesignLeader, "", Args{Count: 64 << 10})
		if done <= 0 {
			t.Fatalf("nodes=%d: no time elapsed", nodes)
		}
	}
}

func TestFlatGatherCompletes(t *testing.T) {
	for _, design := range []Design{DesignFlat, DesignFlatShm} {
		if done := runColl(t, knlCluster(2, 8), core.KindGather, design, "", Args{Count: 64 << 10}); done <= 0 {
			t.Fatalf("%s: no time elapsed", design)
		}
	}
}

func TestTwoLevelBeatsFlatAndGapGrows(t *testing.T) {
	// Fig 17's shape: the hierarchical gather with the contention-aware
	// intra-node design beats the flat gather, and the advantage grows
	// with node count.
	// Medium size: per-message network overheads at the root dominate
	// the flat design, which is where the paper's multi-node gains live.
	a := Args{Count: 16 << 10}
	ppn := 16
	speedup := func(nodes int) float64 {
		two := runColl(t, knlCluster(nodes, ppn), core.KindGather, DesignLeader, "", a)
		flat := runColl(t, knlCluster(nodes, ppn), core.KindGather, DesignFlat, "", a)
		return flat / two
	}
	s2 := speedup(2)
	s8 := speedup(8)
	if s2 <= 1 {
		t.Fatalf("two-level not faster at 2 nodes: speedup %.2f", s2)
	}
	if s8 <= s2 {
		t.Fatalf("speedup did not grow with node count: 2 nodes %.2f, 8 nodes %.2f", s2, s8)
	}
}

func TestPipelinedGatherOverlaps(t *testing.T) {
	// At large sizes, segmenting lets inter-node drains overlap the next
	// segment's intra-node gather, beating the unpipelined design; one
	// segment is the unpipelined design.
	run := func(segments int) float64 {
		return runColl(t, knlCluster(4, 16), core.KindGather, DesignLeader, "throttled:8",
			Args{Count: 1 << 20, Segments: segments})
	}
	plain, one, four := run(0), run(1), run(4)
	if math.Float64bits(one) != math.Float64bits(plain) {
		t.Fatalf("1-segment pipeline (%g) should equal unpipelined (%g)", one, plain)
	}
	if four >= plain {
		t.Fatalf("4-segment pipeline (%g) not below unpipelined (%g)", four, plain)
	}
}

func TestPipelinedGatherRejectsBadSegments(t *testing.T) {
	cases := []struct {
		name     string
		kind     core.Kind
		design   Design
		copyData bool
		segments int
		reject   bool
	}{
		{"negative", core.KindGather, DesignLeader, false, -1, true},
		{"bcast-leader", core.KindBcast, DesignLeader, false, 2, true},
		{"scatter-leader", core.KindScatter, DesignLeader, false, 2, true},
		{"gather-flat", core.KindGather, DesignFlat, false, 2, true},
		{"gather-flat-shm", core.KindGather, DesignFlatShm, false, 2, true},
		{"gather-shared", core.KindGather, DesignShared, false, 2, true},
		{"copy-data", core.KindGather, DesignLeader, true, 2, true},
		{"one-segment-any-kind", core.KindBcast, DesignFlat, true, 1, false},
		{"leader-gather", core.KindGather, DesignLeader, false, 4, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if (r != nil) != tc.reject || (r != nil && !strings.Contains(fmt.Sprint(r), "segment")) {
					t.Fatalf("segments=%d on %s/%s (copyData %v): panic %v, want rejection %v",
						tc.segments, tc.kind, tc.design, tc.copyData, r, tc.reject)
				}
			}()
			cl := New(Config{Arch: arch.KNL(), NumNodes: 2, PPN: 4, CopyData: tc.copyData})
			runColl(t, cl, tc.kind, tc.design, "", Args{Count: 4 << 10, Segments: tc.segments})
		})
	}
}

func TestTwoLevelScatterCompletes(t *testing.T) {
	if done := runColl(t, knlCluster(4, 8), core.KindScatter, DesignLeader, "", Args{Count: 32 << 10}); done <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestDeterministicCluster(t *testing.T) {
	run := func() float64 {
		return runColl(t, knlCluster(3, 6), core.KindGather, DesignLeader, "throttled:4", Args{Count: 32 << 10})
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic cluster run: %g vs %g", a, b)
	}
}
