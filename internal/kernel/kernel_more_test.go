package kernel

import (
	"fmt"
	"testing"

	"camc/internal/arch"
	"camc/internal/sim"
	"camc/internal/trace"
)

func TestAllocOOMPanics(t *testing.T) {
	s := sim.New()
	n := NewNode(s, arch.KNL())
	n.CopyData = false
	p := n.NewProcess(8192)
	p.Alloc(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("expected OOM panic")
		}
	}()
	p.Alloc(8192)
}

func TestSetSocketOutOfRangePanics(t *testing.T) {
	s := sim.New()
	n := NewNode(s, arch.KNL()) // single socket
	p := n.NewProcess(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.SetSocket(1)
}

func TestBytesOnDatalessPanics(t *testing.T) {
	s := sim.New()
	n := NewNode(s, arch.KNL())
	n.CopyData = false
	p := n.NewProcess(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Bytes(0, 16)
}

func TestEndCopyUnderflowPanics(t *testing.T) {
	s := sim.New()
	n := NewNode(s, arch.KNL())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.EndCopy()
}

func TestTraceMaxConcurrency(t *testing.T) {
	s := sim.New()
	n := NewNode(s, arch.KNL())
	n.CopyData = false
	rec := trace.NewUnbound()
	n.SetRecorder(rec)
	size := int64(64 * 4096)
	src := n.NewProcess(1 << 26)
	sa := src.Alloc(size * 8)
	for i := 0; i < 8; i++ {
		i := i
		dst := n.NewProcess(1 << 22)
		da := dst.Alloc(size)
		s.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			if err := dst.VMRead(p, da, src, sa+Addr(int64(i)*size), size); err != nil {
				panic(err)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	tr := trace.SummarizeCMA(rec)
	if tr.MaxC != 8 {
		t.Fatalf("trace MaxC = %d, want 8", tr.MaxC)
	}
	if tr.Ops != 8 {
		t.Fatalf("trace Ops = %d", tr.Ops)
	}
}

func TestCombine(t *testing.T) {
	s := sim.New()
	n := NewNode(s, arch.KNL())
	p := n.NewProcess(1 << 16)
	a := p.Alloc(256)
	b := p.Alloc(256)
	ab := p.Bytes(a, 256)
	bb := p.Bytes(b, 256)
	for i := range ab {
		ab[i] = byte(i)
		bb[i] = byte(200) // forces wraparound for i > 55
	}
	var elapsed float64
	s.Spawn("c", func(sp *sim.Proc) {
		start := sp.Now()
		p.Combine(sp, a, b, 256)
		elapsed = sp.Now() - start
		p.Combine(sp, a, b, 0) // no-op
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range p.Bytes(a, 256) {
		if v != byte(i)+200 {
			t.Fatalf("combine[%d] = %d, want %d", i, v, byte(i)+200)
		}
	}
	if want := 256 * n.Arch.MemCopyBeta(); elapsed != want {
		t.Fatalf("combine time %g, want %g", elapsed, want)
	}
}

func TestVMWriteContendsOnDestination(t *testing.T) {
	// For writes, the *destination* mm is the contended one (all-to-one).
	a := arch.KNL()
	lat := func(writers int) float64 {
		s := sim.New()
		n := NewNode(s, a)
		n.CopyData = false
		dst := n.NewProcess(1 << 30)
		size := int64(256 << 10)
		da := dst.Alloc(size * int64(writers))
		for i := 0; i < writers; i++ {
			i := i
			src := n.NewProcess(1 << 22)
			sa := src.Alloc(size)
			s.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
				if err := src.VMWrite(p, sa, dst, da+Addr(int64(i)*size), size); err != nil {
					panic(err)
				}
			})
		}
		if err := s.Run(); err != nil {
			panic(err)
		}
		return s.Now()
	}
	if one, many := lat(1), lat(16); many < 4*one {
		t.Fatalf("16 writers %.1f not clearly above 1 writer %.1f", many, one)
	}
}

func TestPidsAreStable(t *testing.T) {
	s := sim.New()
	n := NewNode(s, arch.KNL())
	n.CopyData = false
	p1 := n.NewProcess(4096)
	p2 := n.NewProcess(4096)
	if p1.PID() == p2.PID() {
		t.Fatal("duplicate pids")
	}
	if len(n.procs) != 2 {
		t.Fatalf("procs = %d", len(n.procs))
	}
	if p1.uid != 0 {
		t.Fatal("default uid non-zero")
	}
}

func TestInFlightVisible(t *testing.T) {
	s := sim.New()
	n := NewNode(s, arch.KNL())
	n.CopyData = false
	src := n.NewProcess(1 << 24)
	size := int64(512 * 4096)
	sa := src.Alloc(size)
	dst := n.NewProcess(1 << 24)
	da := dst.Alloc(size)
	var seen int
	s.Spawn("reader", func(p *sim.Proc) {
		if err := dst.VMRead(p, da, src, sa, size); err != nil {
			panic(err)
		}
	})
	s.Spawn("observer", func(p *sim.Proc) {
		p.Sleep(20) // mid-transfer
		seen = src.mmInFlight
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Fatalf("observer saw inflight = %d, want 1", seen)
	}
}
