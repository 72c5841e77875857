package sim

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"
)

// stepOp is one item of a process's plan: sleep d, holding the shared
// mutex across the sleep when lock is set.
type stepOp struct {
	d    Time
	lock bool
}

// goid returns the running goroutine's id. Each process body runs on
// its own coroutine goroutine, and Run on its caller's.
func goid() int {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.Atoi(string(b[:bytes.IndexByte(b, ' ')]))
	return id
}

// stepRun records where each Step ran: on Run's goroutine, or inline
// on the stepping process's own coroutine. A step on any other
// coroutine is an error.
type stepRun struct {
	runG    int
	onRun   int
	foreign []string
	procG   map[string]int
	log     []string
}

func (r *stepRun) noteStep(name string) {
	switch g := goid(); g {
	case r.runG:
		r.onRun++
	case r.procG[name]:
	default:
		r.foreign = append(r.foreign, name)
	}
}

// planStepper runs a plan as a Stepper: the state machine of planSleep.
type planStepper struct {
	r      *stepRun
	p      *Proc
	mu     *Mutex
	plan   []stepOp
	k      int
	parked bool // woken holding mu after StepPark
}

func (st *planStepper) Step() Time {
	st.r.noteStep(st.p.Name())
	if st.parked {
		st.parked = false
		return st.plan[st.k].d
	}
	if st.plan[st.k].lock {
		st.mu.Unlock()
	}
	st.r.log = append(st.r.log, fmt.Sprint(st.p.Name(), "@", st.p.Now()))
	if st.k++; st.k == len(st.plan) {
		return StepDone
	}
	if op := st.plan[st.k]; op.lock && !st.mu.Acquire(st.p) {
		st.parked = true
		return StepPark
	}
	return st.plan[st.k].d
}

// planSleep runs a plan as a loop of Lock, Sleep and Unlock calls.
func planSleep(r *stepRun, p *Proc, mu *Mutex, plan []stepOp) {
	for _, op := range plan {
		if op.lock {
			mu.Lock(p)
		}
		p.Sleep(op.d)
		if op.lock {
			mu.Unlock()
		}
		r.log = append(r.log, fmt.Sprint(p.Name(), "@", p.Now()))
	}
}

// stepsRun runs every plan, as Sleep loops or as SleepSteps, and logs
// each process's instant after every sleep, when its body resumes
// after the plan, and after a Yield there. With virtual set, one more
// process sleeps once and then costs a sleep chain in closed form, so
// a virtual wake is pending while the others run their plans.
func stepsRun(plans [][]stepOp, steps, virtual bool) (*stepRun, Time, uint64) {
	s := New()
	mu := NewMutex(s)
	r := &stepRun{runG: goid(), procG: map[string]int{}}
	for i, plan := range plans {
		name, plan := fmt.Sprint("p", i), plan
		s.Spawn(name, func(p *Proc) {
			r.procG[name] = goid()
			if !steps {
				planSleep(r, p, mu, plan)
			} else {
				if plan[0].lock {
					mu.Lock(p)
				}
				p.SleepSteps(plan[0].d, &planStepper{r: r, p: p, mu: mu, plan: plan})
			}
			r.log = append(r.log, fmt.Sprint(name, " resumed@", p.Now()))
			p.Yield()
			r.log = append(r.log, fmt.Sprint(name, "+", p.Now()))
		})
	}
	if virtual {
		s.Spawn("virtual", func(p *Proc) {
			p.Sleep(0.5)
			p.OpenVirtual()
			c := &chainVirtual{from: p.Now(), ts: []Time{p.Now() + 1, p.Now() + 1.5, p.Now() + 3}}
			c.origin, c.mark = p.Origin()
			c.src = p.AddVirtual(c, 1)
			p.WakeVirtual(c.src, int32(len(c.ts)-1))
			p.Park("virtual")
			r.log = append(r.log, fmt.Sprint("virtual@", p.Now()))
			p.Yield()
			r.log = append(r.log, fmt.Sprint("virtual+", p.Now()))
		})
	}
	if err := s.Run(); err != nil {
		panic(err)
	}
	return r, s.Now(), s.EventsProcessed()
}

// TestSleepStepsMatchesSleep: a plan run through SleepSteps must be
// indistinguishable from the same plan written as Sleep, Lock and
// Unlock calls — the same final clock bits, EventsProcessed, and order
// of every wake-up and resumption — while 16 processes contend on a
// coarse grid (instants tie at every depth), park on a shared mutex,
// or run beside a pending virtual wake. Every step runs either on
// Run's goroutine or inline on its own process's coroutine, never on
// another process's.
func TestSleepStepsMatchesSleep(t *testing.T) {
	for _, row := range []struct {
		name      string
		procs     int
		lockEvery int // every lockEvery-th op holds the mutex; 0 = none
		virtual   bool
		wantOnRun bool // some step must run on Run's goroutine
	}{
		{"solo", 1, 0, false, false},
		{"contended", 16, 0, false, true},
		{"mutex", 16, 3, false, true},
		{"virtual wake", 16, 0, true, true},
		{"mutex and virtual wake", 16, 2, true, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(row.name))))
			onRun := 0
			for c := 0; c < 50; c++ {
				plans := make([][]stepOp, row.procs)
				for i := range plans {
					for k := 1 + rng.Intn(8); k > 0; k-- {
						op := stepOp{d: Time(rng.Intn(4)) * 0.5}
						op.lock = row.lockEvery > 0 && rng.Intn(row.lockEvery) == 0
						plans[i] = append(plans[i], op)
					}
				}
				want, wantNow, wantEvents := stepsRun(plans, false, row.virtual)
				got, gotNow, gotEvents := stepsRun(plans, true, row.virtual)
				if !slices.Equal(want.log, got.log) {
					t.Fatalf("case %d: plans %v: Sleep log\n%v\nSleepSteps log\n%v", c, plans, want.log, got.log)
				}
				if math.Float64bits(wantNow) != math.Float64bits(gotNow) || wantEvents != gotEvents {
					t.Fatalf("case %d: Sleep ends at %v after %d events, SleepSteps at %v after %d",
						c, wantNow, wantEvents, gotNow, gotEvents)
				}
				if len(got.foreign) > 0 {
					t.Fatalf("case %d: steps of %v ran on another process's coroutine", c, got.foreign)
				}
				onRun += got.onRun
			}
			if row.wantOnRun && onRun == 0 {
				t.Errorf("no step ran on Run's goroutine: the rows do not reach the dispatcher-driven path")
			}
			if !row.wantOnRun && onRun != 0 {
				t.Errorf("%d steps of a lone process ran on Run's goroutine, want all inline", onRun)
			}
		})
	}
}
