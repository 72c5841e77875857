//go:build go1.23

package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// drainIdleWorkers stops every pooled worker, so a goroutine count taken
// afterwards counts no idle coroutine. The goroutine checks below fail
// only on a rise: a goroutine of an earlier test may still be exiting
// while a count is taken, which can only lower it.
func drainIdleWorkers() {
	workerPool.Lock()
	idle := workerPool.idle
	workerPool.idle = nil
	workerPool.Unlock()
	for _, w := range idle {
		w.halt()
	}
}

func idleWorkers() int {
	workerPool.Lock()
	defer workerPool.Unlock()
	return len(workerPool.idle)
}

// primePool leaves at least n idle workers in the pool.
func primePool(t *testing.T, n int) {
	t.Helper()
	s := New()
	for i := 0; i < n; i++ {
		s.Spawn(fmt.Sprintf("prime%d", i), func(p *Proc) { p.Sleep(1) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := idleWorkers(); got < n {
		t.Fatalf("pool holds %d idle workers after priming, want >= %d", got, n)
	}
}

// TestFailedRunStrandsNoGoroutine: when Run fails — a deadlock, or a
// body panic it re-raises — it stops the coroutine of every unfinished
// process, so the goroutine count returns to where it started once the
// idle pool is drained. The deadlock rows also pin that the Blocked list
// is built before anything is stopped.
func TestFailedRunStrandsNoGoroutine(t *testing.T) {
	cases := []struct {
		name        string
		build       func(s *Simulation)
		wantBlocked []string // deadlock rows
		wantPanic   string   // panic rows: substring of Run's panic
	}{
		{
			name: "deadlock",
			build: func(s *Simulation) {
				c := NewChan[int](s, 0)
				m := NewMutex(s)
				s.Spawn("holder", func(p *Proc) { m.Lock(p); c.Recv(p) })
				s.Spawn("waiter", func(p *Proc) { p.Sleep(1); m.Lock(p) })
				s.Spawn("done", func(p *Proc) { p.Sleep(2) })
			},
			wantBlocked: []string{"holder: chan recv", "waiter: mutex lock"},
		},
		{
			name: "deadlock with a stepper parked on a mutex",
			build: func(s *Simulation) {
				c := NewChan[int](s, 0)
				m := NewMutex(s)
				s.Spawn("holder", func(p *Proc) { m.Lock(p); c.Recv(p) })
				s.Spawn("stepper", func(p *Proc) {
					p.SleepSteps(1, stepFunc(func() Time {
						if !m.Acquire(p) {
							return StepPark
						}
						return StepDone
					}))
				})
			},
			wantBlocked: []string{"holder: chan recv", "stepper: mutex lock"},
		},
		{
			name: "step panic on Run's stack",
			build: func(s *Simulation) {
				s.Spawn("ticker", func(p *Proc) {
					for i := 0; i < 10; i++ {
						p.Sleep(0.5)
					}
				})
				s.Spawn("boom", func(p *Proc) {
					steps := 0
					p.SleepSteps(1, stepFunc(func() Time {
						if steps++; steps == 3 {
							panic("step failed")
						}
						return 1
					}))
				})
			},
			wantPanic: `process "boom" panicked: step failed`,
		},
		{
			name: "step panic inline",
			build: func(s *Simulation) {
				s.Spawn("sleeper", func(p *Proc) { p.Sleep(5) })
				s.Spawn("boom", func(p *Proc) {
					p.SleepSteps(1, stepFunc(func() Time { panic("step failed") }))
				})
			},
			wantPanic: `process "boom" panicked: step failed`,
		},
		{
			name: "body panic",
			build: func(s *Simulation) {
				s.Spawn("boom", func(p *Proc) { p.Sleep(1); panic("kapow") })
				s.Spawn("sleeper", func(p *Proc) { p.Sleep(5) })
			},
			wantPanic: `process "boom" panicked: kapow`,
		},
		{
			name: "panic with others blocked on a Chan",
			build: func(s *Simulation) {
				c := NewChan[[]byte](s, 1)
				for i := 0; i < 8; i++ {
					s.Spawn(fmt.Sprintf("recv%d", i), func(p *Proc) { c.Recv(p) })
				}
				s.Spawn("sender", func(p *Proc) {
					c.Send(p, make([]byte, 64))
					p.Sleep(1)
					panic("sender failed")
				})
			},
			wantPanic: `process "sender" panicked: sender failed`,
		},
		{
			name: "panic with timed waits pending",
			build: func(s *Simulation) {
				c := NewChan[int](s, 0)
				s.Spawn("timed-recv", func(p *Proc) { c.RecvTimeout(p, 100) })
				s.Spawn("timed-send", func(p *Proc) { NewChan[int](s, 0).SendTimeout(p, 1, 100) })
				s.Spawn("plain-recv", func(p *Proc) { NewChan[int](s, 0).Recv(p) })
				s.Spawn("boom", func(p *Proc) { p.Sleep(3); panic("mid-wait") })
			},
			wantPanic: `process "boom" panicked: mid-wait`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			drainIdleWorkers()
			start := runtime.NumGoroutine()
			s := New()
			tc.build(s)
			err, panicked := runRecovering(s)
			if tc.wantPanic != "" {
				if !strings.Contains(fmt.Sprint(panicked), tc.wantPanic) {
					t.Fatalf("Run panicked with %v (err %v), want %q", panicked, err, tc.wantPanic)
				}
			} else {
				var de *DeadlockError
				if !errors.As(err, &de) {
					t.Fatalf("Run = %v (panic %v), want a DeadlockError", err, panicked)
				}
				if fmt.Sprint(de.Blocked) != fmt.Sprint(tc.wantBlocked) {
					t.Fatalf("blocked = %v, want %v", de.Blocked, tc.wantBlocked)
				}
			}
			drainIdleWorkers()
			if got := runtime.NumGoroutine(); got > start {
				t.Fatalf("goroutines: %d before Run, %d after the failed run", start, got)
			}
		})
	}
}

// stepFunc adapts a function to a Stepper.
type stepFunc func() Time

func (f stepFunc) Step() Time { return f() }

func runRecovering(s *Simulation) (err error, panicked any) {
	defer func() { panicked = recover() }()
	return s.Run(), nil
}

// TestSpawnFromRunningProcReusesPool: a process spawned by a running
// process starts on a pooled worker, so a warmed pool serves parent and
// child without starting a goroutine.
func TestSpawnFromRunningProcReusesPool(t *testing.T) {
	primePool(t, 2)
	idle, start := idleWorkers(), runtime.NumGoroutine()
	s := New()
	var childEnd Time
	s.Spawn("parent", func(p *Proc) {
		p.Sleep(3)
		s.Spawn("child", func(q *Proc) {
			if q.w == nil {
				t.Error("child runs without a worker")
			}
			q.Sleep(4)
			childEnd = q.Now()
		})
		p.Sleep(10)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if childEnd != 7 || s.Now() != 13 {
		t.Fatalf("child end %g, sim end %g; want 7 and 13", childEnd, s.Now())
	}
	if got := runtime.NumGoroutine(); got > start {
		t.Errorf("goroutines %d -> %d: a spawn started a goroutine instead of reusing the pool", start, got)
	}
	if got := idleWorkers(); got != idle {
		t.Errorf("idle workers %d -> %d, want both workers back in the pool", idle, got)
	}
}

// TestPanicThenPoolReuse: the worker of a panicking body goes back to
// the pool, and the next simulation runs correctly on that pool.
func TestPanicThenPoolReuse(t *testing.T) {
	drainIdleWorkers()
	s := New()
	s.Spawn("boom", func(p *Proc) { p.Sleep(1); panic("kapow") })
	s.Spawn("sleeper", func(p *Proc) { p.Sleep(5) })
	if _, panicked := runRecovering(s); panicked == nil {
		t.Fatal("Run did not re-raise the body panic")
	}
	if got := idleWorkers(); got != 1 {
		t.Fatalf("idle workers after the panic = %d, want 1 (the panicked body's; the blocked one is stopped)", got)
	}
	start := runtime.NumGoroutine()
	s2 := New()
	c := NewChan[int](s2, 0)
	var got []int
	s2.Spawn("send", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(1)
			c.Send(p, i)
		}
	})
	s2.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, c.Recv(p))
		}
	})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1 2]" || s2.Now() != 3 {
		t.Fatalf("after reuse: got %v at t=%g, want [0 1 2] at t=3", got, s2.Now())
	}
	if n := runtime.NumGoroutine(); n > start+1 {
		t.Errorf("goroutines %d -> %d, want at most one new worker, for the second process", start, n)
	}
}

// TestIdlePoolCapped: a run wider than the cap leaves at most
// maxIdleWorkers idle; the extra workers are stopped as they finish.
func TestIdlePoolCapped(t *testing.T) {
	const procs = 10000
	drainIdleWorkers()
	start := runtime.NumGoroutine()
	s := New()
	for i := 0; i < procs; i++ {
		s.Spawn("p", func(p *Proc) { p.Sleep(1) }) // all live at t=0
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := idleWorkers(); got != maxIdleWorkers {
		t.Errorf("idle workers after a %d-process run = %d, want the cap %d", procs, got, maxIdleWorkers)
	}
	if got := runtime.NumGoroutine() - start; got > maxIdleWorkers {
		t.Errorf("goroutines left after the run = %d, want only the %d pooled workers", got, maxIdleWorkers)
	}
	drainIdleWorkers()
}

// TestParallelSimulationsSharePool runs independent simulations on
// parallel goroutines over the one process-wide pool; under -race this
// checks that the pool's mutex orders each worker's hand-over between
// simulations.
func TestParallelSimulationsSharePool(t *testing.T) {
	const rounds = 20
	run := func() (Time, uint64) {
		s := New()
		c := NewChan[int](s, 2)
		m := NewMutex(s)
		for i := 0; i < 6; i++ {
			i := i
			s.Spawn("p", func(p *Proc) {
				m.Lock(p)
				p.Sleep(Time(1 + i%3))
				m.Unlock()
				if i%2 == 0 {
					c.Send(p, i)
				} else {
					c.Recv(p)
				}
			})
		}
		if err := s.Run(); err != nil {
			panic(err)
		}
		return s.Now(), s.EventsProcessed()
	}
	wantT, wantEv := run()
	var wg sync.WaitGroup
	errs := make(chan string, 2*rounds)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if gt, ge := run(); gt != wantT || ge != wantEv {
					errs <- fmt.Sprintf("t=%g events=%d, want t=%g events=%d", gt, ge, wantT, wantEv)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
