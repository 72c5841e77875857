package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"camc/internal/arch"
	"camc/internal/sim"
)

// blocksRun runs each process's list of copy runs, as loops of
// LocalCopy or as Blocks runs, with a sleep before each run so
// that the processes' copies interleave. It returns the log of each
// run's end instant or panic, the final clock bits, EventsProcessed and
// each process's memory digest.
func blocksRun(runs [][][]block, stepped bool) ([]string, uint64, uint64, []uint64) {
	s := sim.New()
	n := NewNode(s, arch.KNL())
	n.DigestPayload = true
	procs := make([]*Process, len(runs))
	for i := range procs {
		procs[i] = n.NewProcess(1 << 16)
		procs[i].FillAt(0, 1<<15, byte(11*i+1))
	}
	var log []string
	for i, list := range runs {
		p := procs[i]
		s.Spawn(fmt.Sprint("p", i), func(sp *sim.Proc) {
			for k, run := range list {
				sp.Sleep(float64(k%3) * 0.25)
				err := func() (v any) {
					defer func() { v = recover() }()
					if !stepped {
						for _, b := range run {
							p.LocalCopy(sp, b.dst, b.src, b.size)
						}
						return nil
					}
					b := p.Blocks(sp)
					for _, x := range run {
						b.Add(x.dst, x.src, x.size)
					}
					b.Run()
					return nil
				}()
				log = append(log, fmt.Sprintf("p%d run %d %v @%x", i, k, err, math.Float64bits(sp.Now())))
				if err != nil {
					return
				}
			}
		})
	}
	if err := s.Run(); err != nil {
		panic(err)
	}
	var digests []uint64
	for _, p := range procs {
		digests = append(digests, p.MemDigest())
	}
	return log, math.Float64bits(s.Now()), s.EventsProcessed(), digests
}

// TestBlocksMatchLocalCopy: random runs of block copies on contending
// processes — short runs and runs of more than one batch, with
// zero-size, negative-size and overlapping blocks, and out-of-range
// blocks whose panic ends the process — give the same log of end
// instants and panics, final clock bits, EventsProcessed and memory
// digests as Blocks runs as through loops of LocalCopy.
func TestBlocksMatchLocalCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	panics := 0
	for c := 0; c < 200; c++ {
		runs := make([][][]block, 1+rng.Intn(6))
		for i := range runs {
			for k := rng.Intn(5); k > 0; k-- {
				var run []block
				n := rng.Intn(9)
				if rng.Intn(3) == 0 {
					n = rng.Intn(3 * blockBatch)
				}
				for j := n; j > 0; j-- {
					b := block{dst: Addr(rng.Intn(1 << 15)), src: Addr(rng.Intn(1 << 15)), size: int64(rng.Intn(3000))}
					switch rng.Intn(4 + 8*n) {
					case 0:
						b.size = 0
					case 1:
						b.size = -5
					case 2:
						b.dst = 1<<16 - 10 // runs past the address space
					case 3:
						b.src = -1
					}
					run = append(run, b)
				}
				runs[i] = append(runs[i], run)
			}
		}
		want, wantNow, wantEvents, wantMem := blocksRun(runs, false)
		got, gotNow, gotEvents, gotMem := blocksRun(runs, true)
		if !slices.Equal(want, got) {
			t.Fatalf("case %d: runs %v\nLocalCopy log\n%v\nBlocks log\n%v", c, runs, want, got)
		}
		if wantNow != gotNow || wantEvents != gotEvents || !slices.Equal(wantMem, gotMem) {
			t.Fatalf("case %d: LocalCopy ends at %x after %d events with digests %x, Blocks at %x after %d with %x",
				c, wantNow, wantEvents, wantMem, gotNow, gotEvents, gotMem)
		}
		for _, l := range want {
			if !strings.Contains(l, " <nil> @") {
				panics++
			}
		}
	}
	if panics == 0 {
		t.Errorf("no run hit an out-of-range block")
	}
}

// TestBlocksAllocs pins a warm Blocks run of 64 blocks, two batches,
// at 0 allocations: the run comes off the free list.
func TestBlocksAllocs(t *testing.T) {
	s := sim.New()
	n := NewNode(s, arch.KNL())
	n.CopyData = false
	p := n.NewProcess(1 << 20)
	body := func(sp *sim.Proc) {
		b := p.Blocks(sp)
		for j := 0; j < 64; j++ {
			b.Add(Addr(j*4096), Addr(1<<19+j*4096), 4096)
		}
		b.Run()
	}
	cycle := func() {
		s.Reset()
		s.Spawn("a", body)
		s.Spawn("b", body)
		if err := s.Run(); err != nil {
			panic(err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("a warm 64-block run allocates %v, want 0", allocs)
	}
}
