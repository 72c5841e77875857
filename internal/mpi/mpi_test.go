package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"camc/internal/arch"
	"camc/internal/kernel"
	"camc/internal/liveness"
	"camc/internal/sim"
)

func simNew() *sim.Simulation { return sim.New() }

func smallCfg(procs int) Config {
	return Config{Arch: arch.KNL(), Procs: procs, CopyData: true, MemPerProc: 32 << 20}
}

func TestRunSpawnsAllRanks(t *testing.T) {
	seen := make([]bool, 5)
	res, err := Run(smallCfg(5), func(r *Rank) {
		seen[r.ID] = true
		if r.Size() != 5 {
			t.Errorf("Size = %d", r.Size())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("rank %d never ran", i)
		}
	}
	if res.Events == 0 {
		t.Fatal("no events processed")
	}
}

func TestDefaultProcsFromArch(t *testing.T) {
	c := New(Config{Arch: arch.Broadwell()})
	if c.Size() != 28 {
		t.Fatalf("default procs = %d, want 28", c.Size())
	}
}

// transferTest verifies Send/Recv moves bytes correctly for a size.
func transferTest(t *testing.T, size int64) {
	t.Helper()
	cfg := smallCfg(2)
	var sa, da kernel.Addr
	c := New(cfg)
	sa = c.Rank(0).Alloc(size)
	da = c.Rank(1).Alloc(size)
	src := c.Rank(0).OS.Bytes(sa, size)
	for i := range src {
		src[i] = byte(i*13 + 1)
	}
	c.Start(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, sa, size)
		} else {
			r.Recv(0, da, size)
		}
	})
	if err := c.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Rank(0).OS.Bytes(sa, size), c.Rank(1).OS.Bytes(da, size)) {
		t.Fatalf("size %d: payload mismatch", size)
	}
}

func TestEagerTransfer(t *testing.T)      { transferTest(t, 1024) }
func TestRendezvousTransfer(t *testing.T) { transferTest(t, 256<<10) }
func TestThresholdBoundary(t *testing.T) {
	transferTest(t, rendezvousThreshold-1)
	transferTest(t, rendezvousThreshold)
	transferTest(t, rendezvousThreshold+1)
}

func TestRendezvousCheaperThanEagerLarge(t *testing.T) {
	// A 1 MiB rendezvous (single copy) must beat the same message forced
	// through the two-copy shared-memory path.
	lat := func(forceShm bool) float64 {
		cfg := Config{Arch: arch.KNL(), Procs: 2, CopyData: false}
		c := New(cfg)
		const size = 1 << 20
		sa := c.Rank(0).Alloc(size)
		da := c.Rank(1).Alloc(size)
		c.Start(func(r *Rank) {
			if r.ID == 0 {
				if forceShm {
					r.SendShm(1, sa, size)
				} else {
					r.Send(1, sa, size)
				}
			} else {
				if forceShm {
					r.RecvShm(0, da, size)
				} else {
					r.Recv(0, da, size)
				}
			}
		})
		if err := c.Sim.Run(); err != nil {
			t.Fatal(err)
		}
		return c.Sim.Now()
	}
	cma := lat(false)
	shm := lat(true)
	if cma >= shm {
		t.Fatalf("rendezvous %.1fus not below shm two-copy %.1fus at 1M", cma, shm)
	}
}

func TestSendrecvSymmetricNoDeadlock(t *testing.T) {
	const size = 512 << 10
	cfg := Config{Arch: arch.KNL(), Procs: 2, CopyData: false}
	c := New(cfg)
	addrs := make([]kernel.Addr, 2)
	raddrs := make([]kernel.Addr, 2)
	for i := 0; i < 2; i++ {
		addrs[i] = c.Rank(i).Alloc(size)
		raddrs[i] = c.Rank(i).Alloc(size)
	}
	c.Start(func(r *Rank) {
		peer := 1 - r.ID
		r.Sendrecv(peer, addrs[r.ID], size, peer, raddrs[r.ID], size)
	})
	if err := c.Sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvMovesData(t *testing.T) {
	const size = 64 << 10
	c := New(smallCfg(2))
	var sa, ra [2]kernel.Addr
	for i := 0; i < 2; i++ {
		sa[i] = c.Rank(i).Alloc(size)
		ra[i] = c.Rank(i).Alloc(size)
		buf := c.Rank(i).OS.Bytes(sa[i], size)
		for j := range buf {
			buf[j] = byte(i*100 + j%50)
		}
	}
	c.Start(func(r *Rank) {
		peer := 1 - r.ID
		r.Sendrecv(peer, sa[r.ID], size, peer, ra[r.ID], size)
	})
	if err := c.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if !bytes.Equal(c.Rank(i).OS.Bytes(ra[i], size), c.Rank(1-i).OS.Bytes(sa[1-i], size)) {
			t.Fatalf("rank %d received wrong payload", i)
		}
	}
}

func TestSendrecvShmLargeSymmetric(t *testing.T) {
	const size = 2 << 20
	cfg := Config{Arch: arch.Broadwell(), Procs: 2, CopyData: false}
	c := New(cfg)
	var sa, ra [2]kernel.Addr
	for i := 0; i < 2; i++ {
		sa[i] = c.Rank(i).Alloc(size)
		ra[i] = c.Rank(i).Alloc(size)
	}
	c.Start(func(r *Rank) {
		peer := 1 - r.ID
		r.SendrecvShm(peer, sa[r.ID], size, peer, ra[r.ID], size)
	})
	if err := c.Sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierAllRanks(t *testing.T) {
	var maxArrive, minExit float64
	minExit = 1e18
	_, err := Run(Config{Arch: arch.KNL(), Procs: 16, CopyData: false}, func(r *Rank) {
		r.SP.Sleep(float64(r.ID))
		if r.SP.Now() > maxArrive {
			maxArrive = r.SP.Now()
		}
		r.Barrier()
		if r.SP.Now() < minExit {
			minExit = r.SP.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if minExit < maxArrive {
		t.Fatalf("barrier leaked: exit %.2f before last arrival %.2f", minExit, maxArrive)
	}
}

func TestCtlCollectivesOnComm(t *testing.T) {
	vals := make([][]int64, 8)
	_, err := Run(Config{Arch: arch.KNL(), Procs: 8, CopyData: false}, func(r *Rank) {
		b := r.Bcast64(3, int64(900+r.ID))
		if b != 903 {
			t.Errorf("rank %d bcast got %d", r.ID, b)
		}
		vals[r.ID] = r.Allgather64(int64(r.ID * 2))
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		for j := range v {
			if v[j] != int64(j*2) {
				t.Fatalf("rank %d allgather[%d] = %d", i, j, v[j])
			}
		}
	}
}

func TestVMReadWriteHelpers(t *testing.T) {
	const size = 32 << 10
	c := New(smallCfg(3))
	a0 := c.Rank(0).Alloc(size)
	a1 := c.Rank(1).Alloc(size)
	a2 := c.Rank(2).Alloc(size)
	buf := c.Rank(0).OS.Bytes(a0, size)
	for i := range buf {
		buf[i] = byte(i % 251)
	}
	c.Start(func(r *Rank) {
		switch r.ID {
		case 1: // pull from rank 0
			r.VMRead(a1, 0, a0, size)
			r.Notify(2)
		case 2: // wait, then push into rank 0's upper half via write from own copy
			r.WaitNotify(1)
			r.VMRead(a2, 1, a1, size)
		}
	})
	if err := c.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Rank(2).OS.Bytes(a2, size), buf) {
		t.Fatal("chained VMRead payload mismatch")
	}
}

func TestDeterministicRuns(t *testing.T) {
	f := func(procs8 uint8, sizeKB uint8) bool {
		procs := int(procs8%6) + 2
		size := (int64(sizeKB%32) + 1) << 10
		run := func() float64 {
			cfg := Config{Arch: arch.Broadwell(), Procs: procs, CopyData: false}
			c := New(cfg)
			addrs := make([]kernel.Addr, procs)
			for i := 0; i < procs; i++ {
				addrs[i] = c.Rank(i).Alloc(size)
			}
			c.Start(func(r *Rank) {
				next := (r.ID + 1) % procs
				prev := (r.ID - 1 + procs) % procs
				r.Sendrecv(next, addrs[r.ID], size, prev, addrs[r.ID], size)
			})
			if err := c.Sim.Run(); err != nil {
				panic(err)
			}
			return c.Sim.Now()
		}
		return run() == run()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestManyRanksFullSubscription(t *testing.T) {
	// Power8 full subscription: 160 ranks barrier + ctl allgather.
	res, err := Run(Config{Arch: arch.Power8(), CopyData: false}, func(r *Rank) {
		r.Barrier()
		v := r.Allgather64(int64(r.ID))
		if v[159] != 159 {
			t.Errorf("rank %d bad allgather tail", r.ID)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatal("no time elapsed")
	}
	_ = fmt.Sprint(res)
}

// TestBlockingPrimitivesHonorDeadline drives every blocking transport
// primitive against a rank that fails silently (returns without ever
// participating) and asserts the liveness property end to end: each
// survivor that blocks on the dead rank — directly or transitively —
// gets *liveness.PeerDeadError naming it, no survivor blocks past the
// configured deadline (plus revocation slack), and survivors whose part
// of the primitive never blocks finish clean. VMRead/VMWrite are absent
// by design: CMA reads a peer's memory without its cooperation, so they
// cannot block on a dead rank (their dead-peer marking is covered by
// the kill-plan tests in internal/measure).
func TestBlockingPrimitivesHonorDeadline(t *testing.T) {
	const (
		procs    = 4
		dead     = 2
		deadline = 200.0
		poll     = 5.0
	)
	all := []int{0, 1, 3} // every survivor blocks
	cases := []struct {
		name     string
		errRanks []int // survivors whose Protected must return ErrPeerDead
		body     func(r *Rank, addrs []kernel.Addr)
	}{
		{"recv", all, func(r *Rank, addrs []kernel.Addr) {
			r.Recv(dead, addrs[r.ID], 4<<10)
		}},
		{"send_rendezvous", all, func(r *Rank, addrs []kernel.Addr) {
			r.Send(dead, addrs[r.ID], 256<<10)
		}},
		{"sendrecv", all, func(r *Rank, addrs []kernel.Addr) {
			r.Sendrecv(dead, addrs[r.ID], 4<<10, dead, addrs[r.ID], 4<<10)
		}},
		{"barrier", all, func(r *Rank, addrs []kernel.Addr) {
			r.Barrier()
		}},
		{"wait_notify", all, func(r *Rank, addrs []kernel.Addr) {
			r.WaitNotify(dead)
		}},
		{"bcast64_dead_root", all, func(r *Rank, addrs []kernel.Addr) {
			r.Bcast64(dead, int64(r.ID))
		}},
		// Gather64 is flat: non-roots post their ctl message and return,
		// so only the root blocks on the dead contributor.
		{"gather64_dead_child", []int{0}, func(r *Rank, addrs []kernel.Addr) {
			r.Gather64(0, int64(r.ID))
		}},
		{"allgather64", all, func(r *Rank, addrs []kernel.Addr) {
			r.Allgather64(int64(r.ID))
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg(procs)
			cfg.Liveness = &liveness.Config{Deadline: deadline, Poll: poll}
			c := New(cfg)
			addrs := make([]kernel.Addr, procs)
			for i := 0; i < procs; i++ {
				addrs[i] = c.Rank(i).Alloc(256 << 10)
			}
			errs := make([]error, procs)
			ran := make([]bool, procs)
			c.Start(func(r *Rank) {
				if r.ID == dead {
					return // silent permanent failure: never participates
				}
				errs[r.ID] = r.Protected(func() { tc.body(r, addrs) })
				ran[r.ID] = true
			})
			if err := c.Sim.Run(); err != nil {
				t.Fatal(err)
			}
			// The detection bound: the first blocked survivor waits out
			// one full deadline, everyone else is revoked within polls.
			if now := c.Sim.Now(); now > deadline+deadline/2 {
				t.Fatalf("survivors still blocked at %.1fus (deadline %gus)", now, deadline)
			}
			mustErr := map[int]bool{}
			for _, i := range tc.errRanks {
				mustErr[i] = true
			}
			for i := 0; i < procs; i++ {
				if i == dead {
					continue
				}
				if !ran[i] {
					t.Fatalf("rank %d never returned from Protected", i)
				}
				if !mustErr[i] {
					if errs[i] != nil {
						t.Fatalf("rank %d should finish clean, got %v", i, errs[i])
					}
					continue
				}
				if !errors.Is(errs[i], liveness.ErrPeerDead) {
					t.Fatalf("rank %d: err = %v, want ErrPeerDead", i, errs[i])
				}
				var pd *liveness.PeerDeadError
				if !errors.As(errs[i], &pd) {
					t.Fatalf("rank %d: err %T is not *PeerDeadError", i, errs[i])
				}
				found := false
				for _, d := range pd.Ranks {
					if d == dead {
						found = true
					}
				}
				if !found {
					t.Fatalf("rank %d: dead set %v misses rank %d", i, pd.Ranks, dead)
				}
			}
		})
	}
}

func TestNewOnNodeSharesSimulation(t *testing.T) {
	// Two communicators on one simulation (the multi-node layout): both
	// make progress under the shared clock and their node state is
	// independent.
	s := simNew()
	nodeA := kernel.NewNode(s, arch.KNL())
	nodeA.CopyData = false
	nodeB := kernel.NewNode(s, arch.KNL())
	nodeB.CopyData = false
	ca := NewOnNode(nodeA, 4, 1<<22)
	cb := NewOnNode(nodeB, 4, 1<<22)
	if ca.Size() != 4 || cb.Size() != 4 {
		t.Fatal("sizes wrong")
	}
	var doneA, doneB float64
	ca.Start(func(r *Rank) {
		r.Barrier()
		doneA = r.SP.Now()
	})
	cb.Start(func(r *Rank) {
		r.SP.Sleep(5)
		r.Barrier()
		doneB = r.SP.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if doneA <= 0 || doneB < 5 {
		t.Fatalf("barriers did not run: %g %g", doneA, doneB)
	}
	if doneB <= doneA {
		t.Fatalf("staggered communicator should finish later: %g vs %g", doneB, doneA)
	}
}
