package measure

import (
	"fmt"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/fault"
	"camc/internal/kernel"
	"camc/internal/mpi"
	"camc/internal/payload"
)

// CollectiveChecked times a collective exactly like Collective — the
// same window (Time), skew and fault plan — but with real data movement,
// verifies that every byte of every receive buffer landed exactly per
// MPI semantics, then returns the latency and the fault statistics the
// run accumulated. It is the measurement core of the x8 robustness
// experiment: under an injected fault plan the latency includes
// retries, backoff and degraded-path traffic, and the byte verification
// proves the degradation was graceful — the payload is identical to a
// fault-free run's.
func CollectiveChecked(a *arch.Profile, kind core.Kind, algo func(*mpi.Rank, core.Args), count int64, opts Options) (float64, fault.Stats, error) {
	procs, iters := opts.procs(a), opts.iters()
	if _, _, err := payload.BufSizes(kind, procs, count); err != nil {
		return 0, fault.Stats{}, err
	}
	if err := opts.checkLiveness(); err != nil {
		return 0, fault.Stats{}, err
	}
	c := mpi.New(mpi.Config{Arch: a, Procs: procs, CopyData: true, MemPerProc: MemPerRank(a, procs, count, iters), Mechanism: opts.Mechanism, Ambient: opts.Ambient, Fault: opts.Fault, Liveness: opts.Liveness})
	send, recv, sends := seedComm(c, kind, count)
	lat, err := Time(c, algo, send, recv, count, opts.Root, iters, opts.skew(procs*iters))
	if err != nil {
		return 0, c.FaultPlan().Stats(), err
	}
	return lat, c.FaultPlan().Stats(), verifyComm(c, kind, opts.Root, count, sends, recv)
}

// seedBuffers allocates one rank's send and receive buffers in os for a
// p-rank collective of an already validated kind. With data it also
// seeds them through the kernel's payload layer — payload.Pattern into
// the send buffer, 0xEE poison into the receive buffer — and returns
// the pattern, which payload.Verify takes as the rank's send snapshot.
func seedBuffers(os *kernel.Process, kind core.Kind, p, rank int, count int64, data bool) (send, recv kernel.Addr, pattern []byte) {
	sendLen, recvLen, _ := payload.BufSizes(kind, p, count)
	send, recv = os.Alloc(sendLen), os.Alloc(recvLen)
	if data {
		pattern = payload.Pattern(kind, p, rank, count)
		os.WriteAt(send, pattern)
		os.FillAt(recv, recvLen, 0xEE)
	}
	return send, recv, pattern
}

// seedComm seeds every rank of communicator c (see seedBuffers).
func seedComm(c *mpi.Comm, kind core.Kind, count int64) (send, recv []kernel.Addr, sends [][]byte) {
	p := c.Size()
	send, recv, sends = make([]kernel.Addr, p), make([]kernel.Addr, p), make([][]byte, p)
	for r := 0; r < p; r++ {
		send[r], recv[r], sends[r] = seedBuffers(c.Rank(r).OS, kind, p, r, count, true)
	}
	return send, recv, sends
}

// verifyComm checks every receive buffer of communicator c, recv[r]
// being rank r's base, against the reference executor over sends.
func verifyComm(c *mpi.Comm, kind core.Kind, root int, count int64, sends [][]byte, recv []kernel.Addr) error {
	return verifyRecv(kind, root, count, sends, func(r int) *kernel.Process { return c.Rank(r).OS }, recv)
}

// verifyRecv checks every rank's receive buffer, recv[r] in proc(r)'s
// memory, against the reference executor over the seeded sends.
func verifyRecv(kind core.Kind, root int, count int64, sends [][]byte, proc func(rank int) *kernel.Process, recv []kernel.Addr) error {
	_, recvLen, _ := payload.BufSizes(kind, len(sends), count)
	err := payload.Verify(kind, len(sends), count, root, sends,
		func(r int) []byte { return proc(r).Bytes(recv[r], recvLen) })
	if err != nil {
		return fmt.Errorf("measure: %s: %v", kind, err)
	}
	return nil
}
