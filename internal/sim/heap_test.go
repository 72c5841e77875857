package sim

import (
	"math"
	"math/rand"
	"testing"
)

// popEvent pops the earliest pending event without dispatching it, for
// the heap benchmarks and allocation tests.
func (s *Simulation) popEvent() event { return s.events.pop() }

// refEventHeap is a verbatim copy, under names of its own, of the binary
// heap the dispatcher ran before the (time, seq) bit compare, the hole
// sifts and replaceTop:
// TestEventHeapMatchesReference holds the heap to it, event for event
// and in the size of its backing array.
type refEventHeap []event

func (h refEventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h *refEventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// refMinShrinkCap is minShrinkCap as the reference heap had it.
const refMinShrinkCap = 1024

func (h *refEventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // drop the *Proc reference
	q = q[:n]
	// Shrink a once-large backing array when occupancy falls to an
	// eighth of it, so a transient burst (a wide barrier fan-in, a
	// many-rank spawn wave) doesn't pin its high-water memory for the
	// rest of the process. Halving the capacity keeps the shrink
	// geometric — push doubles, pop halves, so no push/pop sequence can
	// oscillate across the boundary.
	if c := cap(q); c >= refMinShrinkCap && n <= c/8 {
		nq := make(refEventHeap, n, c/2)
		copy(nq, q)
		q = nq
	}
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	return top
}

// TestEventHeapMatchesReference drives the heap and the reference with
// the same random plans of push, pop and replaceTop (the reference's
// replaceTop is a push then a pop) and compares every popped event —
// time bits, sequence number, process and timer — and the length and
// capacity after every operation. Times sit on a coarse grid, so ties
// broken by sequence number are common; a share of the events carry a
// timer, some of them cancelled. Each round starts empty in a large
// backing array, as Reset leaves one, grows the heap past minShrinkCap
// and drains it, so the shrink runs on both the pop and the replaceTop
// path.
func TestEventHeapMatchesReference(t *testing.T) {
	procs := make([]*Proc, 7)
	for i := range procs {
		procs[i] = &Proc{id: i}
	}
	shrinks := map[string]int{}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var seq uint64
		var now Time // the last popped instant: pushes never precede it
		newEvent := func(min Time) event {
			seq++
			e := event{t: min + 0.25*float64(rng.Intn(8)), seq: seq, p: procs[rng.Intn(len(procs))]}
			if rng.Intn(4) == 0 {
				e.tm = &timer{stopped: rng.Intn(2) == 0}
			}
			return e
		}
		ops := 0
		check := func(what string, got, want event) {
			t.Helper()
			if math.Float64bits(got.t) != math.Float64bits(want.t) || got.seq != want.seq || got.p != want.p || got.tm != want.tm {
				t.Fatalf("seed %d op %d %s: popped (%g, %d, p%d, %p), reference (%g, %d, p%d, %p)",
					seed, ops, what, got.t, got.seq, got.p.id, got.tm, want.t, want.seq, want.p.id, want.tm)
			}
			now = got.t
		}
		for round := 0; round < 4; round++ {
			h := make(eventHeap, 0, 4*minShrinkCap)
			ref := make(refEventHeap, 0, 4*minShrinkCap)
			peak := minShrinkCap + rng.Intn(4*minShrinkCap)
			for _, growing := range []bool{true, false} {
				for growing && len(h) < peak || !growing && len(h) > 0 {
					ops++
					c0 := cap(h)
					what := "push"
					switch r := rng.Intn(10); {
					case len(h) > 0 && r < 3:
						// replaceTop's precondition: the new event does
						// not come before the top.
						what = "replaceTop"
						e := newEvent(h[0].t)
						got := h.replaceTop(e)
						ref.push(e)
						check(what, got, ref.pop())
					case len(h) > 0 && (growing && r < 5 || !growing && r < 9):
						what = "pop"
						check(what, h.pop(), ref.pop())
					default:
						e := newEvent(now)
						h.push(e)
						ref.push(e)
					}
					if len(h) != len(ref) || cap(h) != cap(ref) {
						t.Fatalf("seed %d op %d %s: len/cap %d/%d, reference %d/%d", seed, ops, what, len(h), cap(h), len(ref), cap(ref))
					}
					if cap(h) < c0 {
						shrinks[what]++
					}
				}
			}
			if cap(h) >= minShrinkCap {
				t.Errorf("seed %d round %d: drained heap keeps a backing array of %d, want it shrunk below %d", seed, round, cap(h), minShrinkCap)
			}
		}
	}
	if shrinks["pop"] == 0 || shrinks["replaceTop"] == 0 {
		t.Errorf("shrinks by path %v: want both pop and replaceTop to shrink the backing array", shrinks)
	}
}
