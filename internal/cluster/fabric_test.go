package cluster

import (
	"testing"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/kernel"
)

func TestGammaNetMonotone(t *testing.T) {
	if g := gammaNet(1); g != 1 {
		t.Fatalf("gammaNet(1) = %g, want 1", g)
	}
	prev := 0.0
	for c := 1; c <= 64; c++ {
		g := gammaNet(c)
		if g <= prev {
			t.Fatalf("gammaNet not strictly increasing at c=%d: %g <= %g", c, g, prev)
		}
		if g < float64(c) {
			t.Fatalf("gammaNet(%d) = %g < c: aggregate link rate would exceed line rate", c, g)
		}
		prev = g
	}
}

func TestGammaNetPanicsBelowOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for gammaNet(0)")
		}
	}()
	gammaNet(0)
}

// TestFlowConservation checks that every link delivers exactly the bytes
// injected into it, with sane activity accounting, after a
// contention-heavy collective.
func TestFlowConservation(t *testing.T) {
	for _, topo := range TopoNames() {
		cl := New(Config{Arch: arch.KNL(), NumNodes: 5, PPN: 3, Topo: topo, SwitchRadix: 2})
		coll, err := Lookup(cl, core.KindAlltoall, DesignLeader, "")
		if err != nil {
			t.Fatal(err)
		}
		world := cl.WorldSize()
		count := int64(4 << 10)
		_, err = cl.Run(func(r *Rank) {
			send := r.Alloc(int64(world) * count)
			recv := r.Alloc(int64(world) * count)
			coll.Run(r, Args{Send: send, Recv: recv, Count: count})
		})
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		stats := cl.Fabric.LinkStats()
		if len(stats) == 0 {
			t.Fatalf("%s: no links touched", topo)
		}
		for _, ls := range stats {
			if ls.Injected != ls.Delivered {
				t.Errorf("%s %s: injected %d != delivered %d", topo, ls.Name, ls.Injected, ls.Delivered)
			}
			if ls.MaxActive < 1 {
				t.Errorf("%s %s: max active %d < 1", topo, ls.Name, ls.MaxActive)
			}
			if ls.Busy <= 0 || ls.Last < ls.First {
				t.Errorf("%s %s: bad activity window busy=%g first=%g last=%g", topo, ls.Name, ls.Busy, ls.First, ls.Last)
			}
		}
	}
}

// TestLinkUtilization checks the γ_net >= c consequence: a link never
// delivers bytes faster than its line rate over its activity window
// (with slack for chunks in flight at the window edges).
func TestLinkUtilization(t *testing.T) {
	cl := New(Config{Arch: arch.KNL(), NumNodes: 6, PPN: 4, SwitchRadix: 2})
	coll, err := Lookup(cl, core.KindGather, DesignFlat, "")
	if err != nil {
		t.Fatal(err)
	}
	world := cl.WorldSize()
	count := int64(64 << 10)
	if _, err := cl.Run(func(r *Rank) {
		send := r.Alloc(count)
		recv := r.Alloc(int64(world) * count)
		coll.Run(r, Args{Send: send, Recv: recv, Count: count})
	}); err != nil {
		t.Fatal(err)
	}
	chunkTime := float64(chunkBytes) * netBeta
	for _, ls := range cl.Fabric.LinkStats() {
		window := ls.Last - ls.First
		limit := window + float64(ls.MaxActive)*chunkTime + 1e-6
		if got := float64(ls.Delivered) * netBeta; got > limit {
			t.Errorf("link %s: delivered %d bytes needs %.1fus of line rate but window is %.1fus (max %d flows)",
				ls.Name, ls.Delivered, got, window, ls.MaxActive)
		}
	}
}

// TestLatencyMonotoneInNodes checks that at a fixed payload, adding
// nodes never makes the leader-based broadcast faster.
func TestLatencyMonotoneInNodes(t *testing.T) {
	prev := 0.0
	for _, nodes := range []int{2, 3, 4, 6, 8, 12} {
		cl := New(Config{Arch: arch.KNL(), NumNodes: nodes, PPN: 4})
		coll, err := Lookup(cl, core.KindBcast, DesignLeader, "")
		if err != nil {
			t.Fatal(err)
		}
		count := int64(256 << 10)
		done, err := cl.Run(func(r *Rank) {
			send := r.Alloc(count)
			recv := r.Alloc(count)
			coll.Run(r, Args{Send: send, Recv: recv, Count: count})
		})
		if err != nil {
			t.Fatal(err)
		}
		if done < prev {
			t.Fatalf("latency decreased with node count: %d nodes = %.1fus < %.1fus", nodes, done, prev)
		}
		prev = done
	}
}

func TestTopoRoutes(t *testing.T) {
	for _, name := range TopoNames() {
		topo, err := TopoByName(name, 9, 4)
		if err != nil {
			t.Fatal(err)
		}
		var buf [maxRouteHops]LinkID
		for src := 0; src < 9; src++ {
			for dst := 0; dst < 9; dst++ {
				route := topo.Route(src, dst, buf[:0])
				if src == dst {
					if len(route) != 0 {
						t.Fatalf("%s: self-route %d->%d not empty", name, src, dst)
					}
					continue
				}
				if len(route) == 0 || len(route) > maxRouteHops {
					t.Fatalf("%s: route %d->%d has %d hops", name, src, dst, len(route))
				}
				for _, l := range route {
					if int(l) < 0 || int(l) >= topo.NumLinks() {
						t.Fatalf("%s: route %d->%d uses link %d of %d", name, src, dst, l, topo.NumLinks())
					}
					if topo.LinkName(l) == "" {
						t.Fatalf("%s: link %d unnamed", name, l)
					}
				}
			}
		}
	}
	if _, err := TopoByName("torus", 4, 2); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if _, err := TopoByName("fattree", 0, 2); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := TopoByName("fattree", 4, 0); err == nil {
		t.Fatal("zero radix accepted")
	}
}

// TestFabricPoolReuse pins the queue-pooling regression: a released
// cluster's simulation and fabric are reused by the next same-shape New,
// and the rerun creates no new queue channels.
func TestFabricPoolReuse(t *testing.T) {
	// A switch radix no other test uses keys a private pool slot.
	cfg := Config{Arch: arch.KNL(), NumNodes: 4, PPN: 2, SwitchRadix: 13}
	run := func(cl *Cluster) {
		coll, err := Lookup(cl, core.KindGather, DesignLeader, "")
		if err != nil {
			t.Fatal(err)
		}
		world := cl.WorldSize()
		if _, err := cl.Run(func(r *Rank) {
			send := r.Alloc(1 << 10)
			recv := r.Alloc(int64(world) << 10)
			coll.Run(r, Args{Send: send, Recv: recv, Count: 1 << 10})
		}); err != nil {
			t.Fatal(err)
		}
	}
	cl := New(cfg)
	run(cl)
	fab, s := cl.Fabric, cl.Sim
	allocs := fab.ChanAllocs
	if allocs == 0 {
		t.Fatal("no queue channels allocated on first run")
	}
	Release(cl)
	cl2 := New(cfg)
	if cl2.Fabric != fab || cl2.Sim != s {
		t.Fatal("same-shape New did not reuse the released simulation/fabric pair")
	}
	run(cl2)
	if cl2.Fabric.ChanAllocs != allocs {
		t.Fatalf("rerun allocated %d new queue channels", cl2.Fabric.ChanAllocs-allocs)
	}
	Release(cl2)
}

// TestReleaseDetectsLeakedMessage: releasing a cluster whose run left a
// message undrained must panic loudly rather than recycle a dirty queue.
func TestReleaseDetectsLeakedMessage(t *testing.T) {
	// A switch radix no other test uses keys a private pool slot.
	cfg := Config{Arch: arch.KNL(), NumNodes: 2, PPN: 1, SwitchRadix: 11}
	cl := New(cfg)
	if _, err := cl.Run(func(r *Rank) {
		if r.World == 0 {
			buf := r.Alloc(64)
			r.NetSend(1, buf, 64) // never received
		}
	}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic releasing a fabric with an undrained queue")
		}
	}()
	Release(cl)
}

// TestNetSendRejectsSameNode: the fabric is for cross-node traffic only.
func TestNetSendRejectsSameNode(t *testing.T) {
	cl := New(Config{Arch: arch.KNL(), NumNodes: 2, PPN: 2})
	_, err := cl.Run(func(r *Rank) {
		if r.World == 0 {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for same-node NetSend")
				}
			}()
			r.NetSend(1, kernel.Addr(0), 64)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
