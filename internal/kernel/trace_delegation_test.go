package kernel

import (
	"testing"

	"camc/internal/sim"
	"camc/internal/trace"
)

// TestTraceDelegationSkipsAborted: an address-range violation closes the
// op's span as aborted, and the recorder's CMA summary does not count
// it as an op.
func TestTraceDelegationSkipsAborted(t *testing.T) {
	s := sim.New()
	n := newKNLNode(s)
	rec := trace.NewUnbound()
	n.SetRecorder(rec)

	target := n.NewProcess(1 << 20)
	caller := n.NewProcess(1 << 20)
	da := caller.Alloc(4096)
	s.Spawn("bad-reader", func(p *sim.Proc) {
		// Source range beyond the target's address space: EFAULT.
		if err := caller.VMRead(p, da, target, Addr(1<<20), 4096); err == nil {
			t.Error("out-of-range VMRead succeeded")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sum := trace.SummarizeCMA(rec); sum.Ops != 0 {
		t.Fatalf("aborted op counted: %d ops", sum.Ops)
	}
}
