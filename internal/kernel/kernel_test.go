package kernel

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"camc/internal/arch"
	"camc/internal/sim"
	"camc/internal/trace"
)

func newKNLNode(s *sim.Simulation) *Node { return NewNode(s, arch.KNL()) }

func fillSeeded(b []byte, seed byte) {
	for i := range b {
		b[i] = seed + byte(i*7)
	}
}

func TestVMReadMovesData(t *testing.T) {
	s := sim.New()
	n := newKNLNode(s)
	src := n.NewProcess(1 << 20)
	dst := n.NewProcess(1 << 20)
	const size = 10000
	sa := src.Alloc(size)
	da := dst.Alloc(size)
	fillSeeded(src.Bytes(sa, size), 3)
	s.Spawn("reader", func(p *sim.Proc) {
		if err := dst.VMRead(p, da, src, sa, size); err != nil {
			t.Errorf("VMRead: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src.Bytes(sa, size), dst.Bytes(da, size)) {
		t.Fatal("data mismatch after VMRead")
	}
}

func TestVMWriteMovesData(t *testing.T) {
	s := sim.New()
	n := newKNLNode(s)
	a := n.NewProcess(1 << 20)
	b := n.NewProcess(1 << 20)
	const size = 8192
	aa := a.Alloc(size)
	ba := b.Alloc(size)
	fillSeeded(a.Bytes(aa, size), 9)
	s.Spawn("writer", func(p *sim.Proc) {
		if err := a.VMWrite(p, aa, b, ba, size); err != nil {
			t.Errorf("VMWrite: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(aa, size), b.Bytes(ba, size)) {
		t.Fatal("data mismatch after VMWrite")
	}
}

// singleReadLatency runs one uncontended VMRead of size bytes and returns
// the virtual latency.
func singleReadLatency(t *testing.T, a *arch.Profile, size int64) float64 {
	t.Helper()
	s := sim.New()
	n := NewNode(s, a)
	n.CopyData = false
	src := n.NewProcess(1 << 30)
	dst := n.NewProcess(1 << 30)
	sa := src.Alloc(size)
	da := dst.Alloc(size)
	var lat float64
	s.Spawn("r", func(p *sim.Proc) {
		start := p.Now()
		if err := dst.VMRead(p, da, src, sa, size); err != nil {
			t.Errorf("VMRead: %v", err)
		}
		lat = p.Now() - start
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return lat
}

func TestSingleReadMatchesClosedForm(t *testing.T) {
	// With no contention the latency must be exactly α + nβ + ⌈n/s⌉·l.
	for _, a := range arch.All() {
		for _, size := range []int64{1, 4096, 65536, 1 << 20} {
			got := singleReadLatency(t, a, size)
			pages := float64(a.Pages(int(size)))
			want := a.Alpha + float64(size)*a.Beta() + pages*a.LockPin
			if math.Abs(got-want) > 1e-6*want {
				t.Errorf("%s size %d: latency %g, want %g", a.Name, size, got, want)
			}
		}
	}
}

// concurrentReadLatency has `readers` processes read size bytes each from
// the same source concurrently; returns the time until all complete.
func concurrentReadLatency(a *arch.Profile, readers int, size int64, sameBuffer bool) float64 {
	s := sim.New()
	n := NewNode(s, a)
	n.CopyData = false
	src := n.NewProcess(1 << 32)
	sa := src.Alloc(size * int64(readers))
	for i := 0; i < readers; i++ {
		i := i
		dst := n.NewProcess(1 << 30)
		da := dst.Alloc(size)
		off := Addr(int64(i) * size)
		if sameBuffer {
			off = 0
		}
		s.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			if err := dst.VMRead(p, da, src, sa+off, size); err != nil {
				panic(err)
			}
		})
	}
	if err := s.Run(); err != nil {
		panic(err)
	}
	return s.Now()
}

func TestOneToAllContentionGrows(t *testing.T) {
	// Fig 2(b)/(c): latency inflates super-linearly with concurrent
	// readers of the same source process.
	a := arch.KNL()
	size := int64(256 << 10)
	t1 := concurrentReadLatency(a, 1, size, false)
	t16 := concurrentReadLatency(a, 16, size, false)
	t64 := concurrentReadLatency(a, 64, size, false)
	if t16 < 3*t1 {
		t.Errorf("16 readers %.1fus not clearly above 1 reader %.1fus", t16, t1)
	}
	if t64 < 2*t16 {
		t.Errorf("64 readers %.1fus not clearly above 16 readers %.1fus", t64, t16)
	}
}

func TestSameVsDifferentBufferIrrelevant(t *testing.T) {
	// Fig 2(b) vs 2(c): the bottleneck is the source *process* (its mm
	// lock), not the buffer, so same-buffer and distinct-buffer
	// one-to-all latencies match.
	a := arch.KNL()
	same := concurrentReadLatency(a, 32, 64<<10, true)
	diff := concurrentReadLatency(a, 32, 64<<10, false)
	if math.Abs(same-diff) > 1e-9*same {
		t.Errorf("same-buffer %.3f vs different-buffer %.3f should be equal", same, diff)
	}
}

func TestAllToAllPairsScale(t *testing.T) {
	// Fig 2(a): disjoint pairs do not contend; latency stays near the
	// single-pair latency regardless of pair count (up to the bandwidth
	// ceiling).
	a := arch.KNL()
	size := int64(64 << 10)
	lat := func(pairs int) float64 {
		s := sim.New()
		n := NewNode(s, a)
		n.CopyData = false
		srcs := make([]*Process, pairs)
		sas := make([]Addr, pairs)
		for i := range srcs {
			srcs[i] = n.NewProcess(1 << 30)
			sas[i] = srcs[i].Alloc(size)
		}
		for i := 0; i < pairs; i++ {
			i := i
			dst := n.NewProcess(1 << 30)
			da := dst.Alloc(size)
			s.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
				if err := dst.VMRead(p, da, srcs[i], sas[i], size); err != nil {
					panic(err)
				}
			})
		}
		if err := s.Run(); err != nil {
			panic(err)
		}
		return s.Now()
	}
	t1 := lat(1)
	t4 := lat(4)
	t32 := lat(32)
	if t4 > 1.5*t1 {
		t.Errorf("4 disjoint pairs %.2f vs 1 pair %.2f: should scale", t4, t1)
	}
	// 32 pairs share the aggregate bandwidth ceiling but must stay far
	// below the one-to-all case.
	oneToAll := concurrentReadLatency(a, 32, size, false)
	if t32 > oneToAll/2 {
		t.Errorf("32 disjoint pairs %.2f not clearly below one-to-all %.2f", t32, oneToAll)
	}
}

func TestBreakdownPhases(t *testing.T) {
	// Fig 4: uncontended split has copy+pin+lock+syscall+permcheck; the
	// phases must sum to the total and match the profile's split.
	s := sim.New()
	a := arch.Broadwell()
	n := NewNode(s, a)
	n.CopyData = false
	src := n.NewProcess(1 << 24)
	dst := n.NewProcess(1 << 24)
	size := int64(100 * a.PageSize)
	sa := src.Alloc(size)
	da := dst.Alloc(size)
	var bd Breakdown
	s.Spawn("r", func(p *sim.Proc) {
		var err error
		start := p.Now()
		bd, err = dst.VMReadPartial(p, da, src, sa, size, size)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		if math.Abs((p.Now()-start)-bd.Total()) > 1e-9 {
			t.Errorf("breakdown total %g != elapsed %g", bd.Total(), p.Now()-start)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(bd.Syscall-a.Alpha*a.SyscallFrac) > 1e-12 {
		t.Errorf("syscall = %g", bd.Syscall)
	}
	if math.Abs(bd.Lock-100*a.LockPin*a.LockFrac) > 1e-9 {
		t.Errorf("lock = %g, want %g", bd.Lock, 100*a.LockPin*a.LockFrac)
	}
	if math.Abs(bd.Pin-100*a.LockPin*(1-a.LockFrac)) > 1e-9 {
		t.Errorf("pin = %g", bd.Pin)
	}
}

func TestBreakdownLockGrowsWithContention(t *testing.T) {
	// Fig 4: same page count, more contenders => only Lock inflates.
	a := arch.Broadwell()
	run := func(readers int) Breakdown {
		s := sim.New()
		n := NewNode(s, a)
		n.CopyData = false
		src := n.NewProcess(1 << 28)
		size := int64(64 * a.PageSize)
		sa := src.Alloc(size * int64(readers))
		bds := make([]Breakdown, readers)
		for i := 0; i < readers; i++ {
			i := i
			dst := n.NewProcess(1 << 24)
			da := dst.Alloc(size)
			s.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
				bd, err := dst.VMReadPartial(p, da, src, sa+Addr(int64(i)*size), size, size)
				if err != nil {
					panic(err)
				}
				bds[i] = bd
			})
		}
		if err := s.Run(); err != nil {
			panic(err)
		}
		return bds[0]
	}
	solo := run(1)
	crowd := run(8)
	if crowd.Lock < 3*solo.Lock {
		t.Errorf("lock with 8 readers %.2f not clearly above solo %.2f", crowd.Lock, solo.Lock)
	}
	if math.Abs(crowd.Pin-solo.Pin) > 1e-9 {
		t.Errorf("pin changed with contention: %g vs %g", crowd.Pin, solo.Pin)
	}
	if math.Abs(crowd.Syscall-solo.Syscall) > 1e-9 {
		t.Errorf("syscall changed with contention")
	}
}

func TestPartialIOVecSemantics(t *testing.T) {
	// Table III: the four step-isolation experiments.
	s := sim.New()
	a := arch.KNL()
	n := NewNode(s, a)
	n.CopyData = false
	src := n.NewProcess(1 << 24)
	dst := n.NewProcess(1 << 24)
	const pages = 50
	size := int64(pages * 4096)
	sa := src.Alloc(size)
	da := dst.Alloc(size)
	var t1, t2, t3, t4 float64
	s.Spawn("r", func(p *sim.Proc) {
		bd, _ := dst.VMReadPartial(p, da, src, sa, 0, 0)
		t1 = bd.Total()
		bd, _ = dst.VMReadPartial(p, da, src, sa, 0, 1)
		t2 = bd.Total()
		bd, _ = dst.VMReadPartial(p, da, src, sa, 0, size)
		t3 = bd.Total()
		bd, _ = dst.VMReadPartial(p, da, src, sa, size, size)
		t4 = bd.Total()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !(t1 < t2 && t2 < t3 && t3 < t4) {
		t.Fatalf("want T1 < T2 < T3 < T4, got %g %g %g %g", t1, t2, t3, t4)
	}
	if math.Abs(t1-a.Alpha*a.SyscallFrac) > 1e-12 {
		t.Errorf("T1 = %g, want syscall-only %g", t1, a.Alpha*a.SyscallFrac)
	}
	// l estimated as (T3-T2)/(pages-1), β as (T4-T3)/size.
	lHat := (t3 - t2) / (pages - 1)
	if math.Abs(lHat-a.LockPin) > 1e-9 {
		t.Errorf("l-hat = %g, want %g", lHat, a.LockPin)
	}
	betaHat := (t4 - t3) / float64(size)
	if math.Abs(betaHat-a.Beta()) > 1e-12 {
		t.Errorf("beta-hat = %g, want %g", betaHat, a.Beta())
	}
}

func TestPermissionDenied(t *testing.T) {
	s := sim.New()
	n := newKNLNode(s)
	src := n.NewProcess(1 << 16)
	dst := n.NewProcess(1 << 16)
	src.uid = 42
	sa := src.Alloc(4096)
	da := dst.Alloc(4096)
	s.Spawn("r", func(p *sim.Proc) {
		err := dst.VMRead(p, da, src, sa, 4096)
		if _, ok := err.(*PermissionError); !ok {
			t.Errorf("err = %v, want PermissionError", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	s := sim.New()
	n := newKNLNode(s)
	src := n.NewProcess(1 << 16)
	dst := n.NewProcess(1 << 16)
	s.Spawn("r", func(p *sim.Proc) {
		if err := dst.VMRead(p, 0, src, 0, 1<<20); err == nil {
			t.Error("oversized read should fail")
		}
		if err := dst.VMRead(p, -4, src, 0, 16); err == nil {
			t.Error("negative local address should fail")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInterSocketCopySlower(t *testing.T) {
	a := arch.Broadwell()
	lat := func(sameSocket bool) float64 {
		s := sim.New()
		n := NewNode(s, a)
		n.CopyData = false
		src := n.NewProcess(1 << 24)
		dst := n.NewProcess(1 << 24)
		if !sameSocket {
			dst.SetSocket(1)
		}
		size := int64(1 << 20)
		sa := src.Alloc(size)
		da := dst.Alloc(size)
		s.Spawn("r", func(p *sim.Proc) {
			if err := dst.VMRead(p, da, src, sa, size); err != nil {
				panic(err)
			}
		})
		if err := s.Run(); err != nil {
			panic(err)
		}
		return s.Now()
	}
	intra := lat(true)
	inter := lat(false)
	if inter <= intra {
		t.Fatalf("inter-socket %.1f should exceed intra-socket %.1f", inter, intra)
	}
}

func TestAllocPageAlignedAndDisjoint(t *testing.T) {
	f := func(sizes []uint16) bool {
		s := sim.New()
		n := NewNode(s, arch.KNL())
		n.CopyData = false
		p := n.NewProcess(1 << 30)
		var prevEnd Addr
		for _, sz := range sizes {
			a := p.Alloc(int64(sz))
			if a%4096 != 0 {
				return false
			}
			if a < prevEnd {
				return false
			}
			prevEnd = a + Addr(sz)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalCopy(t *testing.T) {
	s := sim.New()
	n := newKNLNode(s)
	p := n.NewProcess(1 << 20)
	src := p.Alloc(5000)
	dst := p.Alloc(5000)
	fillSeeded(p.Bytes(src, 5000), 17)
	var elapsed float64
	s.Spawn("c", func(sp *sim.Proc) {
		start := sp.Now()
		p.LocalCopy(sp, dst, src, 5000)
		elapsed = sp.Now() - start
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Bytes(src, 5000), p.Bytes(dst, 5000)) {
		t.Fatal("local copy mismatch")
	}
	want := 5000 * n.Arch.MemCopyBeta()
	if math.Abs(elapsed-want) > 1e-9 {
		t.Fatalf("local copy time %g, want %g", elapsed, want)
	}
}

func TestTraceAccumulates(t *testing.T) {
	s := sim.New()
	n := newKNLNode(s)
	n.CopyData = false
	rec := trace.NewUnbound()
	n.SetRecorder(rec)
	src := n.NewProcess(1 << 24)
	dst := n.NewProcess(1 << 24)
	sa := src.Alloc(1 << 20)
	da := dst.Alloc(1 << 20)
	s.Spawn("r", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if err := dst.VMRead(p, da, src, sa, 1<<20); err != nil {
				panic(err)
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	tr := trace.SummarizeCMA(rec)
	if tr.Ops != 3 {
		t.Fatalf("trace ops = %d, want 3", tr.Ops)
	}
	if tr.Copy <= 0 || tr.Lock <= 0 {
		t.Fatalf("trace sums not populated: %+v", tr)
	}
	if tr.MaxC != 1 {
		t.Fatalf("maxC = %d, want 1", tr.MaxC)
	}
}

func TestDeterministicLatency(t *testing.T) {
	f := func(readers8 uint8, sizeKB uint8) bool {
		readers := int(readers8%16) + 1
		size := (int64(sizeKB%64) + 1) * 4096
		l1 := concurrentReadLatency(arch.KNL(), readers, size, false)
		l2 := concurrentReadLatency(arch.KNL(), readers, size, false)
		return l1 == l2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDatalessMatchesDataTiming(t *testing.T) {
	run := func(copyData bool) float64 {
		s := sim.New()
		n := newKNLNode(s)
		n.CopyData = copyData
		src := n.NewProcess(1 << 22)
		dst := n.NewProcess(1 << 22)
		sa := src.Alloc(1 << 20)
		da := dst.Alloc(1 << 20)
		s.Spawn("r", func(p *sim.Proc) {
			if err := dst.VMRead(p, da, src, sa, 1<<20); err != nil {
				panic(err)
			}
		})
		if err := s.Run(); err != nil {
			panic(err)
		}
		return s.Now()
	}
	if a, b := run(true), run(false); a != b {
		t.Fatalf("dataless timing %g differs from data timing %g", b, a)
	}
}
