package shm

import (
	"fmt"
	"testing"

	"camc/internal/sim"
	"camc/internal/trace"
)

// builtPairs returns the (src, dst) pairs whose queue exists.
func builtPairs(t *Transport) map[[2]int]bool {
	out := map[[2]int]bool{}
	for i, q := range t.queues {
		if q != nil {
			out[[2]int{i / t.nranks, i % t.nranks}] = true
		}
	}
	for key := range t.lazy {
		out[[2]int{int(key / int64(t.nranks)), int(key % int64(t.nranks))}] = true
	}
	return out
}

// TestAllgather64BuildsTreeEdgesOnly: a fresh transport holds no queue,
// and one Allgather64 exchanged as messages (a recorder is attached, so
// it takes the message path) builds exactly the queues of its tree, the
// flat gather's r→0 edges plus the binomial broadcast's parent→child
// edges, on the dense table (160 ranks, power8's full node) and on the
// map above denseQueueLimit. Costed in closed form (no recorder), it
// builds none.
func TestAllgather64BuildsTreeEdgesOnly(t *testing.T) {
	for _, p := range []int{160, 1100} {
		for _, traced := range []bool{true, false} {
			s, node, tr, _ := fixture(p, false)
			if traced {
				node.SetRecorder(trace.NewUnbound())
			}
			if n := len(builtPairs(tr)); n != 0 {
				t.Fatalf("p=%d: New built %d queues, want 0", p, n)
			}
			for i := 0; i < p; i++ {
				i := i
				s.Spawn(fmt.Sprintf("r%d", i), func(sp *sim.Proc) { tr.Allgather64(sp, i, int64(i)) })
			}
			if err := s.Run(); err != nil {
				t.Fatalf("p=%d: %v", p, err)
			}
			want := map[[2]int]bool{}
			if traced {
				for r := 1; r < p; r++ {
					high := 1
					for high*2 <= r {
						high *= 2
					}
					want[[2]int{r, 0}] = true
					want[[2]int{r - high, r}] = true
				}
				if len(want) != 2*(p-1) {
					t.Fatalf("p=%d: tree has %d edges, want 2(p-1) = %d", p, len(want), 2*(p-1))
				}
			}
			got := builtPairs(tr)
			for e := range got {
				if !want[e] {
					t.Errorf("p=%d traced=%v: queue %d->%d built, not a tree edge", p, traced, e[0], e[1])
				}
			}
			if len(got) != len(want) {
				t.Errorf("p=%d traced=%v: %d queues built, want %d", p, traced, len(got), len(want))
			}
		}
	}
}
