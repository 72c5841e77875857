package kernel

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"camc/internal/arch"
	"camc/internal/sim"
)

func TestMechanismString(t *testing.T) {
	for m, want := range map[Mechanism]string{
		MechCMA: "cma", MechKNEM: "knem", MechLiMIC: "limic", MechXPMEM: "xpmem",
	} {
		if got := m.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(m), got, want)
		}
	}
}

// mechReadLatency times `ops` sequential reads of size bytes between one
// pair under the given mechanism.
func mechReadLatency(m Mechanism, ops int, size int64) float64 {
	s := sim.New()
	n := NewNode(s, arch.KNL())
	n.CopyData = false
	n.SetMechanism(m)
	src := n.NewProcess(1 << 24)
	dst := n.NewProcess(1 << 24)
	sa := src.Alloc(size)
	da := dst.Alloc(size)
	s.Spawn("r", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			if err := dst.VMRead(p, da, src, sa, size); err != nil {
				panic(err)
			}
		}
	})
	if err := s.Run(); err != nil {
		panic(err)
	}
	return s.Now()
}

func TestCookieCostsOrdering(t *testing.T) {
	// Single transfer: CMA < LiMIC < KNEM (descriptor overheads), all
	// sharing the same data path.
	size := int64(64 << 10)
	cma := mechReadLatency(MechCMA, 1, size)
	limic := mechReadLatency(MechLiMIC, 1, size)
	knem := mechReadLatency(MechKNEM, 1, size)
	if !(cma < limic && limic < knem) {
		t.Fatalf("want cma < limic < knem, got %g %g %g", cma, limic, knem)
	}
	if math.Abs((limic-cma)-limicCookieCost) > 1e-9 {
		t.Fatalf("limic delta %g, want %g", limic-cma, limicCookieCost)
	}
	if math.Abs((knem-cma)-knemCookieCost) > 1e-9 {
		t.Fatalf("knem delta %g, want %g", knem-cma, knemCookieCost)
	}
}

func TestXPMEMAttachAmortizes(t *testing.T) {
	// First transfer pays the attach; ten transfers pay it once.
	size := int64(256 << 10)
	one := mechReadLatency(MechXPMEM, 1, size)
	ten := mechReadLatency(MechXPMEM, 10, size)
	perOpAfter := (ten - one) / 9
	if one < xpmemAttachCost {
		t.Fatalf("first transfer %g did not include the attach cost", one)
	}
	if perOpAfter > one-xpmemAttachCost+1e-6 {
		t.Fatalf("later transfers (%g) not cheaper than the first (%g)", perOpAfter, one)
	}
	// Steady state beats CMA (no syscall, no page locking).
	cma := mechReadLatency(MechCMA, 1, size)
	if perOpAfter >= cma {
		t.Fatalf("attached XPMEM transfer %g not below CMA %g", perOpAfter, cma)
	}
}

func TestXPMEMImmuneToContention(t *testing.T) {
	// The headline property: one-to-all over XPMEM sees no mm-lock
	// contention; CMA blows up.
	oneToAll := func(m Mechanism, readers int) float64 {
		s := sim.New()
		n := NewNode(s, arch.KNL())
		n.CopyData = false
		n.SetMechanism(m)
		size := int64(256 << 10)
		src := n.NewProcess(1 << 30)
		sa := src.Alloc(size * int64(readers))
		for i := 0; i < readers; i++ {
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
			panic(err)
		}
		return s.Now()
	}
	cmaBlowup := oneToAll(MechCMA, 32) / oneToAll(MechCMA, 1)
	xpmemBlowup := oneToAll(MechXPMEM, 32) / oneToAll(MechXPMEM, 1)
	if cmaBlowup < 5 {
		t.Fatalf("CMA one-to-all blowup %g, expected heavy contention", cmaBlowup)
	}
	// XPMEM scales with bandwidth sharing only (32 streams over the
	// ceiling ≈ 5x), far below the lock blowup.
	if xpmemBlowup > cmaBlowup/2 {
		t.Fatalf("XPMEM blowup %g not clearly below CMA's %g", xpmemBlowup, cmaBlowup)
	}
}

func TestXPMEMDataAndPermissions(t *testing.T) {
	s := sim.New()
	n := NewNode(s, arch.KNL())
	n.SetMechanism(MechXPMEM)
	src := n.NewProcess(1 << 20)
	dst := n.NewProcess(1 << 20)
	intruder := n.NewProcess(1 << 20)
	intruder.uid = 5
	const size = 30000
	sa := src.Alloc(size)
	da := dst.Alloc(size)
	ia := intruder.Alloc(size)
	buf := src.Bytes(sa, size)
	for i := range buf {
		buf[i] = byte(i * 11)
	}
	s.Spawn("r", func(p *sim.Proc) {
		if err := dst.VMRead(p, da, src, sa, size); err != nil {
			t.Errorf("xpmem read: %v", err)
		}
		err := intruder.VMRead(p, ia, src, sa, size)
		if _, ok := err.(*PermissionError); !ok {
			t.Errorf("intruder attach: err = %v, want PermissionError", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src.Bytes(sa, size), dst.Bytes(da, size)) {
		t.Fatal("xpmem payload mismatch")
	}
}

func TestXPMEMWriteDirection(t *testing.T) {
	s := sim.New()
	n := NewNode(s, arch.KNL())
	n.SetMechanism(MechXPMEM)
	a := n.NewProcess(1 << 20)
	b := n.NewProcess(1 << 20)
	const size = 9000
	aa := a.Alloc(size)
	ba := b.Alloc(size)
	buf := a.Bytes(aa, size)
	for i := range buf {
		buf[i] = byte(i * 3)
	}
	s.Spawn("w", func(p *sim.Proc) {
		if err := a.VMWrite(p, aa, b, ba, size); err != nil {
			t.Errorf("xpmem write: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(aa, size), b.Bytes(ba, size)) {
		t.Fatal("xpmem write payload mismatch")
	}
}

func TestEmergentLockLinearGamma(t *testing.T) {
	// With the explicit FIFO mutex, c concurrent readers inflate the
	// lock phase roughly linearly (gamma ~ c); the calibrated curve is
	// super-linear. This is the justification for modeling gamma
	// explicitly rather than relying on emergent queueing.
	a := arch.KNL()
	lockTime := func(c int) float64 {
		s := sim.New()
		n := NewNode(s, a)
		n.CopyData = false
		n.EmergentLock = true
		size := int64(128 * 4096)
		src := n.NewProcess(1 << 30)
		sa := src.Alloc(size * int64(c))
		locks := make([]float64, c)
		for i := 0; i < c; i++ {
			i := i
			dst := n.NewProcess(1 << 22)
			da := dst.Alloc(size)
			s.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
				bd, err := dst.VMReadPartial(p, da, src, sa+Addr(int64(i)*size), size, size)
				if err != nil {
					panic(err)
				}
				locks[i] = bd.Lock
			})
		}
		if err := s.Run(); err != nil {
			panic(err)
		}
		var sum float64
		for _, v := range locks {
			sum += v
		}
		return sum / float64(c)
	}
	g1 := lockTime(1)
	g16 := lockTime(16) / g1
	if g16 < 8 || g16 > 24 {
		t.Fatalf("emergent gamma(16) = %.1f, want roughly linear (8..24)", g16)
	}
	// The calibrated curve is far above linear at 16.
	if a.Gamma(16) < 2*g16 {
		t.Fatalf("calibrated gamma(16)=%.0f not clearly above emergent %.1f", a.Gamma(16), g16)
	}
}
