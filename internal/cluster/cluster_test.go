package cluster

import (
	"testing"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/kernel"
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

func TestTwoLevelGatherCompletes(t *testing.T) {
	for _, nodes := range []int{2, 4} {
		cl := knlCluster(nodes, 8)
		gather := GatherTwoLevel(core.TunedGather)
		done, err := cl.Run(func(r *Rank) { gather(r, 64<<10) })
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if done <= 0 {
			t.Fatalf("nodes=%d: no time elapsed", nodes)
		}
	}
}

func TestFlatGatherCompletes(t *testing.T) {
	for _, tr := range []core.Transport{core.TransportPt2pt, core.TransportShm} {
		cl := knlCluster(2, 8)
		gather := GatherFlat(tr)
		if _, err := cl.Run(func(r *Rank) { gather(r, 64<<10) }); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTwoLevelBeatsFlatAndGapGrows(t *testing.T) {
	// Fig 17's shape: the hierarchical gather with the contention-aware
	// intra-node design beats the flat gather, and the advantage grows
	// with node count.
	// Medium size: per-message network overheads at the root dominate
	// the flat design, which is where the paper's multi-node gains live.
	eta := int64(16 << 10)
	ppn := 16
	speedup := func(nodes int) float64 {
		cl := knlCluster(nodes, ppn)
		g := GatherTwoLevel(core.TunedGather)
		two, err := cl.Run(func(r *Rank) { g(r, eta) })
		if err != nil {
			t.Fatal(err)
		}
		cl2 := knlCluster(nodes, ppn)
		f := GatherFlat(core.TransportPt2pt)
		flat, err := cl2.Run(func(r *Rank) { f(r, eta) })
		if err != nil {
			t.Fatal(err)
		}
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
	// segment's intra-node gather, beating the unpipelined design; with
	// one segment the two designs coincide.
	eta := int64(1 << 20)
	run := func(g func(r *Rank, eta int64)) float64 {
		cl := knlCluster(4, 16)
		done, err := cl.Run(func(r *Rank) { g(r, eta) })
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	plain := run(GatherTwoLevel(core.GatherThrottled(8)))
	one := run(GatherTwoLevelPipelined(core.GatherThrottled(8), 1))
	four := run(GatherTwoLevelPipelined(core.GatherThrottled(8), 4))
	if relClose := one/plain > 1.05 || one/plain < 0.95; relClose {
		t.Fatalf("1-segment pipeline (%g) should match unpipelined (%g)", one, plain)
	}
	if four >= plain {
		t.Fatalf("4-segment pipeline (%g) not below unpipelined (%g)", four, plain)
	}
}

func TestPipelinedGatherRejectsBadSegments(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for segments=0")
		}
	}()
	GatherTwoLevelPipelined(core.TunedGather, 0)
}

func TestScatterTwoLevelCompletes(t *testing.T) {
	cl := knlCluster(4, 8)
	scatter := ScatterTwoLevel(core.TunedScatter)
	if _, err := cl.Run(func(r *Rank) { scatter(r, 32<<10) }); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicCluster(t *testing.T) {
	run := func() float64 {
		cl := knlCluster(3, 6)
		g := GatherTwoLevel(core.GatherThrottled(4))
		done, err := cl.Run(func(r *Rank) { g(r, 32<<10) })
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic cluster run: %g vs %g", a, b)
	}
}
