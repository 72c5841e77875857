// Quickstart: build a simulated KNL node, run one contention-aware
// Scatter across 64 ranks with real data, verify MPI semantics, and
// print the virtual-time latency.
package main

import (
	"fmt"
	"log"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/kernel"
	"camc/internal/mpi"
)

func main() {
	a := arch.KNL()
	const count = 64 << 10 // 64 KiB per rank

	// A communicator with real data movement so we can check the bytes.
	comm := mpi.New(mpi.Config{
		Arch:       a,
		CopyData:   true,
		MemPerProc: int64(a.DefaultProcs+4) * count * 2,
	})
	p := comm.Size()

	// Root's send buffer holds one block per rank; every rank gets a
	// receive buffer for its block.
	send := make([]kernel.Addr, p)
	recv := make([]kernel.Addr, p)
	for i := 0; i < p; i++ {
		send[i] = comm.Rank(i).Alloc(int64(p) * count)
		recv[i] = comm.Rank(i).Alloc(count)
	}
	rootBuf := comm.Rank(0).OS.Bytes(send[0], int64(p)*count)
	for i := range rootBuf {
		rootBuf[i] = byte(i / count) // block d is filled with byte(d)
	}

	// Run the paper's throttled-read Scatter (k = the KNL sweet spot, 8).
	comm.Start(func(r *mpi.Rank) {
		core.Tuned(core.KindScatter)(r, core.Args{Send: send[r.ID], Recv: recv[r.ID], Count: count, Root: 0})
	})
	if err := comm.Sim.Run(); err != nil {
		log.Fatal(err)
	}

	// Verify: rank i received a block of byte(i).
	for i := 0; i < p; i++ {
		got := comm.Rank(i).OS.Bytes(recv[i], count)
		if got[0] != byte(i) || got[count-1] != byte(i) {
			log.Fatalf("rank %d received wrong block", i)
		}
	}
	fmt.Printf("Scatter of %d x %d KiB on %s (%d ranks, throttle %d)\n",
		p, count>>10, a.Display, p, core.TunedThrottle(a))
	fmt.Printf("completed correctly in %.1f us of virtual time\n", comm.Sim.Now())
}
