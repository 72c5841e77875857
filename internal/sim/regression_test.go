// Dispatcher regression goldens: the optimised scheduler (typed event
// heap, coroutine hand-off, self-wake Sleep fast path) must be
// behaviourally indistinguishable from the original
// central-scheduler implementation. The constants below were captured
// by running these exact workloads on the pre-optimisation dispatcher;
// both virtual-time results and dispatch counts must match bit-for-bit.
package sim_test

import (
	"fmt"
	"testing"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/kernel"
	"camc/internal/measure"
	"camc/internal/sim"
)

// TestDispatcherRegression pins end-to-end collective latencies across
// architectures, algorithms and skew against the seed scheduler.
func TestDispatcherRegression(t *testing.T) {
	cases := []struct {
		name string
		got  func() float64
		want float64
	}{
		{"scatter-throttled8/knl/256K", func() float64 {
			return measure.Collective(arch.KNL(), core.KindScatter, core.ScatterThrottled(8), 256<<10, measure.Options{})
		}, 1784.8322188449858},
		{"gather-parallelwrite/bdw/64K", func() float64 {
			return measure.Collective(arch.Broadwell(), core.KindGather, core.GatherParallelWrite, 64<<10, measure.Options{})
		}, 882.9159999999997},
		{"bcast-scatterallgather/p8/1M", func() float64 {
			return measure.Collective(arch.Power8(), core.KindBcast, core.BcastScatterAllgather, 1<<20, measure.Options{})
		}, 1677.4148438738455},
		{"allgather-ring/knl/64K", func() float64 {
			return measure.Collective(arch.KNL(), core.KindAllgather, core.AllgatherRingSourceRead, 64<<10, measure.Options{})
		}, 4493.300609523824},
		{"alltoall-coll/knl/16K", func() float64 {
			return measure.Collective(arch.KNL(), core.KindAlltoall, core.AlltoallPairwiseColl, 16<<10, measure.Options{})
		}, 1144.9241523809517},
		{"bcast-knomial9-skew/knl/256K", func() float64 {
			return measure.Collective(arch.KNL(), core.KindBcast, core.BcastKnomialRead(9), 256<<10,
				measure.Options{SkewSeed: 42, MaxSkew: 1000})
		}, 473.43209402227103},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			if got := c.got(); got != c.want {
				t.Errorf("latency drifted from seed dispatcher: got %v, want %v", got, c.want)
			}
		})
	}
}

// TestDispatcherRegressionEventCounts pins EventsProcessed: the Sleep
// fast path must count its in-place clock advances exactly like the
// dispatches they replace.
func TestDispatcherRegressionEventCounts(t *testing.T) {
	oneToAll := func(c int) (float64, uint64) {
		a := arch.KNL()
		s := sim.New()
		node := kernel.NewNode(s, a)
		node.CopyData = false
		size := int64(64) * int64(a.PageSize)
		src := node.NewProcess(size*int64(c) + 1<<20)
		sa := src.Alloc(size * int64(c))
		for i := 0; i < c; i++ {
			i := i
			dst := node.NewProcess(size + 1<<20)
			da := dst.Alloc(size)
			s.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
				if err := dst.VMRead(p, da, src, sa+kernel.Addr(int64(i)*size), size); err != nil {
					panic(err)
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Now(), s.EventsProcessed()
	}
	for _, c := range []struct {
		readers    int
		wantNow    float64
		wantEvents uint64
	}{
		{1, 97.10902735562311, 12},
		{4, 133.58902735562313, 48},
		{16, 548.309027355623, 192},
	} {
		now, events := oneToAll(c.readers)
		if now != c.wantNow || events != c.wantEvents {
			t.Errorf("one-to-all c=%d: got (now=%v, events=%d), want (now=%v, events=%d)",
				c.readers, now, events, c.wantNow, c.wantEvents)
		}
	}

	// Rendezvous-channel ping-pong: exercises the block/wake hand-off.
	s := sim.New()
	ch := sim.NewChan[int](s, 0)
	s.Spawn("ping", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			ch.Send(p, i)
			p.Sleep(0.5)
		}
	})
	s.Spawn("pong", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			ch.Recv(p)
			p.Sleep(0.25)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 50 || s.EventsProcessed() != 302 {
		t.Errorf("ping-pong: got (now=%v, events=%d), want (now=50, events=302)", s.Now(), s.EventsProcessed())
	}
}
