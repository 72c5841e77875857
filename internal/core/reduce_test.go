package core

import (
	"testing"

	"camc/internal/arch"
	"camc/internal/kernel"
	"camc/internal/mpi"
)

// reduceFixture builds a communicator where rank r's send vector is
// filled with f(r, i); the expected reduction at offset i is the mod-256
// sum over ranks.
func runReduce(t *testing.T, p int, count int64, root int, algo func(*mpi.Rank, Args)) {
	t.Helper()
	mem := (8 + 8*int64(p)) * (count + 4096)
	c := mpi.New(mpi.Config{Arch: arch.KNL(), Procs: p, CopyData: true, MemPerProc: mem})
	send := make([]kernel.Addr, p)
	recv := make([]kernel.Addr, p)
	for i := 0; i < p; i++ {
		send[i] = c.Rank(i).Alloc(count)
		recv[i] = c.Rank(i).Alloc(count)
		buf := c.Rank(i).OS.Bytes(send[i], count)
		for j := range buf {
			buf[j] = byte(i*13 + j%31)
		}
	}
	c.Start(func(r *mpi.Rank) {
		algo(r, Args{Send: send[r.ID], Recv: recv[r.ID], Count: count, Root: root})
	})
	if err := c.Sim.Run(); err != nil {
		t.Fatalf("p=%d root=%d: %v", p, root, err)
	}
	got := c.Rank(root).OS.Bytes(recv[root], count)
	for _, j := range sampleOffsets(count) {
		var want byte
		for i := 0; i < p; i++ {
			want += byte(i*13 + int(j)%31)
		}
		if got[j] != want {
			t.Fatalf("p=%d root=%d offset %d: got %d want %d", p, root, j, got[j], want)
		}
	}
}

func TestReduceAlgorithmsCorrect(t *testing.T) {
	for _, algo := range ReduceAlgorithms(2, 3, 4, 9) {
		algo := algo
		t.Run(algo.Name, func(t *testing.T) {
			for _, p := range testProcCounts {
				for _, root := range rootsFor(p) {
					runReduce(t, p, 4500, root, algo.Run)
				}
			}
		})
	}
}

func TestTunedReduceCorrectAcrossThreshold(t *testing.T) {
	for _, count := range []int64{512, 5000, 40000} {
		runReduce(t, 9, count, 2, Tuned(KindReduce))
	}
}

// reduceLatency measures one dataless Reduce invocation at full KNL
// subscription (the measure package cannot be used here: it imports
// core).
func reduceLatency(algo func(*mpi.Rank, Args), eta int64) float64 {
	a := arch.KNL()
	c := mpi.New(mpi.Config{Arch: a, CopyData: false})
	p := c.Size()
	send := make([]kernel.Addr, p)
	recv := make([]kernel.Addr, p)
	for i := 0; i < p; i++ {
		send[i] = c.Rank(i).Alloc(eta)
		recv[i] = c.Rank(i).Alloc(eta)
	}
	c.Start(func(r *mpi.Rank) {
		algo(r, Args{Send: send[r.ID], Recv: recv[r.ID], Count: eta, Root: 0})
	})
	if err := c.Sim.Run(); err != nil {
		panic(err)
	}
	return c.Sim.Now()
}

func TestReduceKnomialBeatsParallelWrite(t *testing.T) {
	// The contention-aware tree must clearly beat the γ_{p−1} design at
	// full KNL subscription and large vectors.
	eta := int64(1 << 20)
	tree := reduceLatency(ReduceKnomial(9), eta)
	naive := reduceLatency(ReduceParallelWrite, eta)
	if naive < 2*tree {
		t.Fatalf("parallel-write reduce %.0fus not clearly above knomial %.0fus", naive, tree)
	}
}

func TestReduceCombineIsExact(t *testing.T) {
	// Byte-wise addition wraps mod 256; verify a case that overflows.
	runReduce(t, 16, 1024, 0, ReduceKnomial(4))
}
