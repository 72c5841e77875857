package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// chainVirtual is a Virtual of one process's sleep chain: event k runs
// at ts[k], scheduled by event k−1, the first by the event the process
// entered the chain in (origin, at instant from).
type chainVirtual struct {
	src    int32
	ts     []Time
	from   Time
	origin Ref
	mark   uint64
}

func (c *chainVirtual) Event(i int32) (Time, Ref, uint64) {
	if i == 0 {
		return c.ts[0], c.origin, c.mark
	}
	return c.ts[i], Ref{Src: c.src, I: i - 1}, 1
}

func (c *chainVirtual) Before(i, j int32) bool { return i < j }

func (c *chainVirtual) Line(i int32) ([]Time, Ref) {
	line := slices.Clone(c.ts[:i+1])
	slices.Reverse(line)
	return append(line, c.from), c.origin
}

func (c *chainVirtual) Release() {}

// lineageRun runs each process's sleep plan, logging its instant after
// every sleep. A marked process logs only after its first and its last
// sleep, then yields and logs again; with closed set it costs the sleeps
// after the first in closed form — parked, then woken at the last
// instant with WakeVirtual — instead of sleeping them.
func lineageRun(plans [][]Time, marked map[int]bool, closed bool) []string {
	s := New()
	var log []string
	for i, plan := range plans {
		i, plan := i, plan
		s.Spawn(fmt.Sprint(i), func(p *Proc) {
			p.Sleep(plan[0])
			log = append(log, fmt.Sprint(i, "@", p.Now()))
			rest := plan[1:]
			if !marked[i] {
				for _, d := range rest {
					p.Sleep(d)
					log = append(log, fmt.Sprint(i, "@", p.Now()))
				}
				return
			}
			if closed && len(rest) > 0 {
				p.OpenVirtual()
				c := &chainVirtual{from: p.Now()}
				c.origin, c.mark = p.Origin()
				for now, k := p.Now(), 0; k < len(rest); k++ {
					now += rest[k]
					c.ts = append(c.ts, now)
				}
				c.src = p.AddVirtual(c, 1)
				p.WakeVirtual(c.src, int32(len(c.ts)-1))
				p.Park("virtual")
			} else {
				for _, d := range rest {
					p.Sleep(d)
				}
			}
			log = append(log, fmt.Sprint(i, "@", p.Now()))
			p.Yield()
			log = append(log, fmt.Sprint(i, "+", p.Now()))
		})
	}
	if err := s.Run(); err != nil {
		panic(err)
	}
	return log
}

// TestVirtualWakeRunsWhereItsEventWould: a process that costs a sleep
// chain in closed form must resume exactly where the chain's last sleep
// would have ended among the other processes' events of that instant,
// and the yield it takes there must land where it would have. Random
// sleep plans on a coarse grid make instants tie at every depth; one or
// two processes go virtual, so wakes meet real events and each other.
func TestVirtualWakeRunsWhereItsEventWould(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 5000; c++ {
		n := 2 + rng.Intn(5)
		plans := make([][]Time, n)
		for i := range plans {
			for k := 1 + rng.Intn(5); k > 0; k-- {
				plans[i] = append(plans[i], Time(rng.Intn(4))*0.5)
			}
		}
		marked := map[int]bool{rng.Intn(n): true}
		if c%2 == 1 {
			marked[rng.Intn(n)] = true
		}
		want := lineageRun(plans, marked, false)
		got := lineageRun(plans, marked, true)
		if !slices.Equal(want, got) {
			t.Fatalf("case %d: plans %v, closed forms %v: sleeping logs\n%v\nclosed forms log\n%v", c, plans, marked, want, got)
		}
	}
}
