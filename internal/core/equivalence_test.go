package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"camc/internal/arch"
	"camc/internal/kernel"
	"camc/internal/mpi"
)

// Cross-algorithm equivalence: every algorithm of a collective must
// produce bit-identical output buffers for identical inputs — the
// algorithms differ only in cost. These property tests drive random
// (p, root, count) triples through every registered implementation and
// diff the results.

// runAndSnapshot executes one algorithm and returns each rank's receive
// buffer contents.
func runAndSnapshot(t *testing.T, a *arch.Profile, kind Kind, algo func(*mpi.Rank, Args), p int, count int64, root int, seed int64) [][]byte {
	t.Helper()
	mem := (8*int64(p) + 16) * (count + 4096)
	if mem < 1<<20 {
		mem = 1 << 20
	}
	c := mpi.New(mpi.Config{Arch: a, Procs: p, CopyData: true, MemPerProc: mem})
	rng := rand.New(rand.NewSource(seed))
	send := make([]kernel.Addr, p)
	recv := make([]kernel.Addr, p)
	blocks := int64(p)
	var sendLen, recvLen int64
	switch kind {
	case KindScatter:
		sendLen, recvLen = blocks*count, count
	case KindGather:
		sendLen, recvLen = count, blocks*count
	case KindAlltoall, KindAllgather:
		sendLen, recvLen = blocks*count, blocks*count
	case KindBcast:
		sendLen, recvLen = count, count
	}
	for i := 0; i < p; i++ {
		send[i] = c.Rank(i).Alloc(sendLen)
		recv[i] = c.Rank(i).Alloc(recvLen)
		buf := c.Rank(i).OS.Bytes(send[i], sendLen)
		rng.Read(buf)
		rb := c.Rank(i).OS.Bytes(recv[i], recvLen)
		for j := range rb {
			rb[j] = 0xAB
		}
	}
	c.Start(func(r *mpi.Rank) {
		algo(r, Args{Send: send[r.ID], Recv: recv[r.ID], Count: count, Root: root})
	})
	if err := c.Sim.Run(); err != nil {
		t.Fatalf("kind=%s p=%d count=%d root=%d: %v", kind, p, count, root, err)
	}
	out := make([][]byte, p)
	for i := 0; i < p; i++ {
		out[i] = append([]byte(nil), c.Rank(i).OS.Bytes(recv[i], recvLen)...)
	}
	// Bcast: the root's receive buffer is unused (its data stays in
	// Send); blank it so algorithms that scribble differently there
	// still compare equal.
	if kind == KindBcast {
		out[root] = nil
	}
	return out
}

func equalSnapshots(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func checkEquivalence(t *testing.T, kind Kind, algos []Algorithm) {
	t.Helper()
	f := func(pRaw, rootRaw uint8, countRaw uint16, seed int64) bool {
		p := int(pRaw%12) + 2
		root := int(rootRaw) % p
		count := int64(countRaw%6000) + 1
		ref := runAndSnapshot(t, arch.KNL(), kind, algos[0].Run, p, count, root, seed)
		for _, al := range algos[1:] {
			got := runAndSnapshot(t, arch.KNL(), kind, al.Run, p, count, root, seed)
			if !equalSnapshots(ref, got) {
				t.Logf("mismatch: %s vs %s at p=%d count=%d root=%d", algos[0].Name, al.Name, p, count, root)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestScatterAlgorithmsEquivalent(t *testing.T) {
	algos := ScatterAlgorithms(1, 3, 5)
	algos = append(algos,
		Algorithm{Name: "binomial-shm", Run: ScatterBinomial(TransportShm)},
		Algorithm{Name: "binomial-p2p", Run: ScatterBinomial(TransportPt2pt)},
	)
	checkEquivalence(t, KindScatter, algos)
}

func TestGatherAlgorithmsEquivalent(t *testing.T) {
	algos := GatherAlgorithms(1, 2, 4)
	algos = append(algos,
		Algorithm{Name: "binomial-shm", Run: GatherBinomial(TransportShm)},
		Algorithm{Name: "binomial-p2p", Run: GatherBinomial(TransportPt2pt)},
	)
	checkEquivalence(t, KindGather, algos)
}

func TestBcastAlgorithmsEquivalent(t *testing.T) {
	algos := BcastAlgorithms(2, 5)
	algos = append(algos,
		Algorithm{Name: "binomial-shm", Run: BcastBinomial(TransportShm)},
		Algorithm{Name: "vdg-p2p", Run: BcastVanDeGeijn(TransportPt2pt)},
	)
	checkEquivalence(t, KindBcast, algos)
}

func TestAllgatherAlgorithmsEquivalent(t *testing.T) {
	algos := AllgatherAlgorithms(1)
	algos = append(algos,
		Algorithm{Name: "ring-shm", Run: AllgatherRing(TransportShm)},
		Algorithm{Name: "ring-p2p", Run: AllgatherRing(TransportPt2pt)},
	)
	checkEquivalence(t, KindAllgather, algos)
}

func TestAlltoallAlgorithmsEquivalent(t *testing.T) {
	checkEquivalence(t, KindAlltoall, AlltoallAlgorithms())
}

func TestTunedMatchesReferenceEverywhere(t *testing.T) {
	// The tuned dispatcher must agree with a reference algorithm at
	// sizes straddling every threshold.
	for _, kind := range []Kind{KindScatter, KindGather, KindBcast, KindAllgather, KindAlltoall} {
		kind := kind
		var ref func(*mpi.Rank, Args)
		switch kind {
		case KindScatter:
			ref = ScatterSeqWrite
		case KindGather:
			ref = GatherSeqRead
		case KindBcast:
			ref = BcastDirectWrite
		case KindAllgather:
			ref = AllgatherRingSourceRead
		case KindAlltoall:
			ref = AlltoallPairwiseColl
		}
		for _, count := range []int64{900, 5000, 20000, 70000} {
			a := runAndSnapshot(t, arch.KNL(), kind, Tuned(kind), 9, count, 0, int64(count))
			b := runAndSnapshot(t, arch.KNL(), kind, ref, 9, count, 0, int64(count))
			if !equalSnapshots(a, b) {
				t.Fatalf("%s tuned != reference at count %d", kind, count)
			}
		}
	}
}
