package core

import (
	"fmt"
	"testing"

	"camc/internal/arch"
	"camc/internal/fault"
	"camc/internal/kernel"
	"camc/internal/mpi"
)

// pattern generates the test byte at offset i of the block rank src
// addresses to rank dst.
func pattern(src, dst, i int) byte { return byte(src*37 + dst*11 + i*7 + 5) }

// fixture holds one prepared collective run.
type fixture struct {
	comm  *mpi.Comm
	send  []kernel.Addr // per-rank send buffer
	recv  []kernel.Addr // per-rank recv buffer
	p     int
	count int64
}

// newFixture builds a communicator with send/recv buffers sized per the
// collective kind and fills send buffers with the pattern.
func newFixture(t *testing.T, a *arch.Profile, p int, kind Kind, count int64) *fixture {
	t.Helper()
	return newFaultFixture(t, a, p, kind, count, nil)
}

// newFaultFixture is newFixture with an optional fault-injection plan
// attached (nil = fault-free): the property and metamorphic suites use
// it to assert faults never change which bytes land.
func newFaultFixture(t *testing.T, a *arch.Profile, p int, kind Kind, count int64, fcfg *fault.Config) *fixture {
	t.Helper()
	mem := (8*int64(p) + 16) * (count + 4096)
	if mem < 1<<20 {
		mem = 1 << 20
	}
	c := mpi.New(mpi.Config{Arch: a, Procs: p, CopyData: true, MemPerProc: mem, Fault: fcfg})
	f := &fixture{comm: c, p: p, count: count}
	for r := 0; r < p; r++ {
		rank := c.Rank(r)
		var sendLen, recvLen int64
		switch kind {
		case KindScatter:
			sendLen, recvLen = int64(p)*count, count // send used at root only
		case KindGather:
			sendLen, recvLen = count, int64(p)*count
		case KindAlltoall, KindAllgather:
			sendLen, recvLen = int64(p)*count, int64(p)*count
		case KindBcast, KindReduce:
			sendLen, recvLen = count, count
		}
		sa := rank.Alloc(sendLen)
		ra := rank.Alloc(recvLen)
		f.send = append(f.send, sa)
		f.recv = append(f.recv, ra)
		// Fill send patterns.
		switch kind {
		case KindScatter: // root sends block d to rank d
			buf := rank.OS.Bytes(sa, sendLen)
			for d := 0; d < p; d++ {
				for i := int64(0); i < count; i++ {
					buf[int64(d)*count+i] = pattern(r, d, int(i))
				}
			}
		case KindAlltoall:
			buf := rank.OS.Bytes(sa, sendLen)
			for d := 0; d < p; d++ {
				for i := int64(0); i < count; i++ {
					buf[int64(d)*count+i] = pattern(r, d, int(i))
				}
			}
		case KindGather, KindAllgather, KindBcast, KindReduce:
			buf := rank.OS.Bytes(sa, sendLen)
			for i := int64(0); i < count; i++ {
				buf[i] = pattern(r, 0, int(i))
			}
		}
		// Poison recv buffers.
		rb := rank.OS.Bytes(ra, recvLen)
		for i := range rb {
			rb[i] = 0xEE
		}
	}
	return f
}

// run executes the algorithm on every rank and fails the test on any
// simulation error.
func (f *fixture) run(t *testing.T, algo func(r *mpi.Rank, a Args), root int) {
	t.Helper()
	f.comm.Start(func(r *mpi.Rank) {
		algo(r, Args{Send: f.send[r.ID], Recv: f.recv[r.ID], Count: f.count, Root: root})
	})
	if err := f.comm.Sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func (f *fixture) checkByte(t *testing.T, rank int, addr kernel.Addr, off int64, want byte, what string) {
	t.Helper()
	got := f.comm.Rank(rank).OS.Bytes(addr+kernel.Addr(off), 1)[0]
	if got != want {
		t.Fatalf("%s: rank %d offset %d: got %#x, want %#x", what, rank, off, got, want)
	}
}

// verifyScatter checks every rank received its block from root.
func (f *fixture) verifyScatter(t *testing.T, root int) {
	t.Helper()
	for r := 0; r < f.p; r++ {
		for _, i := range sampleOffsets(f.count) {
			f.checkByte(t, r, f.recv[r], i, pattern(root, r, int(i)), "scatter")
		}
	}
}

func (f *fixture) verifyGather(t *testing.T, root int) {
	t.Helper()
	for src := 0; src < f.p; src++ {
		base := int64(src) * f.count
		for _, i := range sampleOffsets(f.count) {
			f.checkByte(t, root, f.recv[root], base+i, pattern(src, 0, int(i)), "gather")
		}
	}
}

func (f *fixture) verifyAlltoall(t *testing.T) {
	t.Helper()
	for r := 0; r < f.p; r++ {
		for src := 0; src < f.p; src++ {
			base := int64(src) * f.count
			for _, i := range sampleOffsets(f.count) {
				f.checkByte(t, r, f.recv[r], base+i, pattern(src, r, int(i)), "alltoall")
			}
		}
	}
}

func (f *fixture) verifyAllgather(t *testing.T) {
	t.Helper()
	for r := 0; r < f.p; r++ {
		for src := 0; src < f.p; src++ {
			base := int64(src) * f.count
			for _, i := range sampleOffsets(f.count) {
				f.checkByte(t, r, f.recv[r], base+i, pattern(src, 0, int(i)), "allgather")
			}
		}
	}
}

func (f *fixture) verifyBcast(t *testing.T, root int) {
	t.Helper()
	for r := 0; r < f.p; r++ {
		if r == root {
			continue
		}
		for _, i := range sampleOffsets(f.count) {
			f.checkByte(t, r, f.recv[r], i, pattern(root, 0, int(i)), "bcast")
		}
	}
}

// sampleOffsets picks representative byte offsets: edges plus strided
// interior samples (full verification would be O(p²·count) comparisons).
func sampleOffsets(count int64) []int64 {
	if count == 0 {
		return nil
	}
	offs := []int64{0, count - 1, count / 2}
	for i := int64(0); i < count; i += 977 {
		offs = append(offs, i)
	}
	return offs
}

var testProcCounts = []int{1, 2, 3, 4, 5, 7, 8, 12, 16}

func TestScatterAlgorithmsCorrect(t *testing.T) {
	algos := ScatterAlgorithms(1, 2, 3, 4, 8)
	for _, algo := range algos {
		algo := algo
		t.Run(algo.Name, func(t *testing.T) {
			for _, p := range testProcCounts {
				for _, root := range rootsFor(p) {
					f := newFixture(t, arch.KNL(), p, KindScatter, 4500)
					f.run(t, algo.Run, root)
					f.verifyScatter(t, root)
				}
			}
		})
	}
}

func TestGatherAlgorithmsCorrect(t *testing.T) {
	algos := GatherAlgorithms(1, 2, 3, 4, 8)
	for _, algo := range algos {
		algo := algo
		t.Run(algo.Name, func(t *testing.T) {
			for _, p := range testProcCounts {
				for _, root := range rootsFor(p) {
					f := newFixture(t, arch.KNL(), p, KindGather, 4500)
					f.run(t, algo.Run, root)
					f.verifyGather(t, root)
				}
			}
		})
	}
}

func TestAlltoallAlgorithmsCorrect(t *testing.T) {
	for _, algo := range AlltoallAlgorithms() {
		algo := algo
		t.Run(algo.Name, func(t *testing.T) {
			for _, p := range testProcCounts {
				f := newFixture(t, arch.KNL(), p, KindAlltoall, 3000)
				f.run(t, algo.Run, 0)
				f.verifyAlltoall(t)
			}
		})
	}
}

func TestAllgatherAlgorithmsCorrect(t *testing.T) {
	for _, algo := range AllgatherAlgorithms(1, 3, 5) {
		algo := algo
		t.Run(algo.Name, func(t *testing.T) {
			for _, p := range testProcCounts {
				if algo.Name == "ring-neighbor-3" && p%3 == 0 {
					continue // stride must be coprime with p
				}
				if algo.Name == "ring-neighbor-5" && p%5 == 0 {
					continue
				}
				f := newFixture(t, arch.KNL(), p, KindAllgather, 3000)
				f.run(t, algo.Run, 0)
				f.verifyAllgather(t)
			}
		})
	}
}

func TestBcastAlgorithmsCorrect(t *testing.T) {
	for _, algo := range BcastAlgorithms(2, 3, 4, 8) {
		algo := algo
		t.Run(algo.Name, func(t *testing.T) {
			for _, p := range testProcCounts {
				for _, root := range rootsFor(p) {
					f := newFixture(t, arch.KNL(), p, KindBcast, 9000)
					f.run(t, algo.Run, root)
					f.verifyBcast(t, root)
				}
			}
		})
	}
}

func rootsFor(p int) []int {
	if p == 1 {
		return []int{0}
	}
	if p == 2 {
		return []int{0, 1}
	}
	return []int{0, p / 2, p - 1}
}

func TestRingNeighborRejectsBadStride(t *testing.T) {
	f := newFixture(t, arch.KNL(), 6, KindAllgather, 256)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for gcd(6,3) != 1")
		}
	}()
	f.run(t, AllgatherRingNeighbor(3), 0)
}

func TestThrottleFactorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	ScatterThrottled(0)
}

func TestKnomialTreeShape(t *testing.T) {
	// Every non-root must appear exactly once as some node's child, and
	// the parent/child relations must be mutually consistent.
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 27, 28, 64, 160} {
		for _, k := range []int{2, 3, 4, 8, 11} {
			seen := make([]int, p)
			for v := 0; v < p; v++ {
				parent, levels := knomialChildren(v, p, k)
				if v == 0 && parent != -1 {
					t.Fatalf("p=%d k=%d: root has parent %d", p, k, parent)
				}
				for _, lvl := range levels {
					if len(lvl) > k-1 {
						t.Fatalf("p=%d k=%d: node %d level has %d children (> k-1)", p, k, v, len(lvl))
					}
					for _, c := range lvl {
						if c <= v || c >= p {
							t.Fatalf("p=%d k=%d: node %d has invalid child %d", p, k, v, c)
						}
						seen[c]++
						cp, _ := knomialChildren(c, p, k)
						if cp != v {
							t.Fatalf("p=%d k=%d: child %d's parent = %d, want %d", p, k, c, cp, v)
						}
					}
				}
			}
			for v := 1; v < p; v++ {
				if seen[v] != 1 {
					t.Fatalf("p=%d k=%d: node %d appears as child %d times", p, k, v, seen[v])
				}
			}
		}
	}
}

func TestKnomialBinomialDepth(t *testing.T) {
	// k=2 must be the binomial tree: depth ⌈log2 p⌉.
	depth := func(p int) int {
		var d [4096]int
		max := 0
		for v := 1; v < p; v++ {
			parent, _ := knomialChildren(v, p, 2)
			d[v] = d[parent] + 1
			if d[v] > max {
				max = d[v]
			}
		}
		return max
	}
	for _, p := range []int{2, 4, 8, 16, 64} {
		want := ceilLog(2, p)
		if got := depth(p); got != want {
			t.Fatalf("p=%d: binomial depth %d, want %d", p, got, want)
		}
	}
}

func TestContiguousRuns(t *testing.T) {
	tests := []struct {
		in   []int
		want string
	}{
		{nil, "[]"},
		{[]int{3}, "[[3 1]]"},
		{[]int{1, 2, 3}, "[[1 3]]"},
		{[]int{1, 3, 4, 7}, "[[1 1] [3 2] [7 1]]"},
	}
	for _, tt := range tests {
		if got := fmt.Sprint(contiguousRuns(tt.in)); got != tt.want {
			t.Errorf("contiguousRuns(%v) = %s, want %s", tt.in, got, tt.want)
		}
	}
}

func TestInPlaceScatterSkipsRootCopy(t *testing.T) {
	// With InPlace the root's recv buffer is untouched (0xEE poison
	// remains) but non-roots still receive.
	p := 4
	f := newFixture(t, arch.KNL(), p, KindScatter, 2048)
	f.comm.Start(func(r *mpi.Rank) {
		ScatterThrottled(2)(r, Args{Send: f.send[r.ID], Recv: f.recv[r.ID], Count: 2048, Root: 0, InPlace: true})
	})
	if err := f.comm.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if b := f.comm.Rank(0).OS.Bytes(f.recv[0], 1)[0]; b != 0xEE {
		t.Fatalf("root recv buffer was written in-place mode: %#x", b)
	}
	for r := 1; r < p; r++ {
		for _, i := range sampleOffsets(2048) {
			f.checkByte(t, r, f.recv[r], i, pattern(0, r, int(i)), "inplace scatter")
		}
	}
}

func TestAlgorithmsOnAllArchitectures(t *testing.T) {
	// Page size differences (Power8 64K) and socket placement must not
	// break correctness.
	for _, a := range arch.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			p := 10
			f := newFixture(t, a, p, KindAllgather, 5000)
			f.run(t, AllgatherRingSourceRead, 0)
			f.verifyAllgather(t)

			f2 := newFixture(t, a, p, KindScatter, 5000)
			f2.run(t, ScatterThrottled(3), 0)
			f2.verifyScatter(t, 0)

			f3 := newFixture(t, a, p, KindBcast, 5000)
			f3.run(t, BcastScatterAllgather, 2)
			f3.verifyBcast(t, 2)
		})
	}
}

func TestCollectiveDeterministicLatency(t *testing.T) {
	run := func() float64 {
		c := mpi.New(mpi.Config{Arch: arch.Broadwell(), Procs: 12, CopyData: false})
		send := make([]kernel.Addr, 12)
		recv := make([]kernel.Addr, 12)
		for i := 0; i < 12; i++ {
			send[i] = c.Rank(i).Alloc(12 * 8192)
			recv[i] = c.Rank(i).Alloc(12 * 8192)
		}
		c.Start(func(r *mpi.Rank) {
			AlltoallPairwiseColl(r, Args{Send: send[r.ID], Recv: recv[r.ID], Count: 8192})
		})
		if err := c.Sim.Run(); err != nil {
			panic(err)
		}
		return c.Sim.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %g vs %g", a, b)
	}
}
