package sim

import (
	"fmt"
	"testing"
)

// The hot-path allocation budget. The seed dispatcher boxed every event
// through container/heap (~2 allocs per dispatch); the typed heap, the
// Sleep fast path, and the Proc/timer free lists bring the steady state
// to zero. These tests pin exact bounds: the dispatch loop allocates
// nothing at all, and neither does a full Reset+Spawn+Run cycle once the
// worker pool holds a coroutine per process.

func TestScheduleZeroAllocSteadyState(t *testing.T) {
	s := New()
	p := &Proc{sim: s, name: "x"}
	// Warm the heap's backing array, then assert the push/pop cycle
	// allocates nothing at all.
	for i := 0; i < 64; i++ {
		s.schedule(p, float64(i))
	}
	for len(s.events) > 0 {
		s.popEvent()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.schedule(p, 1)
		s.popEvent()
	})
	if allocs != 0 {
		t.Errorf("schedule+pop allocates %v per cycle, want exactly 0", allocs)
	}
}

func TestSleepSelfWakeAllocs(t *testing.T) {
	// One process running 1024 self-wake sleeps, re-run on a warmed
	// simulation via Reset: the Proc shell comes off the free list and
	// its coroutine off the worker pool, so the whole cycle allocates
	// nothing.
	const sleeps = 1024
	s := New()
	body := func(sp *Proc) {
		for k := 0; k < sleeps; k++ {
			sp.Sleep(0.5)
		}
	}
	cycle := func() {
		s.Reset()
		s.Spawn("solo", body)
		if err := s.Run(); err != nil {
			panic(err)
		}
	}
	cycle() // warm: first worker, heap backing, free lists
	allocs := testing.AllocsPerRun(10, cycle)
	if allocs != 0 {
		t.Errorf("self-wake cycle of %d sleeps allocates %v, want 0", sleeps, allocs)
	}
}

func TestContendedDispatchAllocBound(t *testing.T) {
	// 16 processes ping-ponging sleeps: >3000 dispatches through the
	// heap per cycle. With pooled Procs and workers nothing in the cycle
	// allocates; the bound leaves room for constant runtime bookkeeping
	// only — nothing may scale with the process or event count.
	const procs, sleeps = 16, 64
	s := New()
	names := make([]string, procs)
	bodies := make([]func(*Proc), procs)
	for p := 0; p < procs; p++ {
		p := p
		names[p] = fmt.Sprintf("p%d", p)
		bodies[p] = func(sp *Proc) {
			for k := 0; k < sleeps; k++ {
				sp.Sleep(float64(1 + (p+k)%3))
			}
		}
	}
	var events uint64
	cycle := func() {
		s.Reset()
		for p := 0; p < procs; p++ {
			s.Spawn(names[p], bodies[p])
		}
		if err := s.Run(); err != nil {
			panic(err)
		}
		events = s.EventsProcessed()
	}
	cycle()
	allocs := testing.AllocsPerRun(10, cycle)
	if allocs > 4 {
		t.Errorf("contended cycle of %d procs allocates %v, want <= 4", procs, allocs)
	}
	if perEvent := allocs / float64(events); perEvent > 0.025 {
		t.Errorf("contended cycle: %v allocs over %d events = %.4f/event, want <= 0.025", allocs, events, perEvent)
	}
}

func TestTimedWaitTimerReuse(t *testing.T) {
	// Timed waits in steady state must recycle their timer objects: a
	// long sequence of RecvTimeout expiries may allocate waiter structs
	// but not grow the timer population. The assertion is structural —
	// after warmup the free list stops growing beyond one entry.
	s := New()
	ch := NewChan[int](s, 0)
	const waits = 64
	s.Spawn("waiter", func(sp *Proc) {
		for k := 0; k < waits; k++ {
			if _, ok := ch.RecvTimeout(sp, 1); ok {
				panic("unexpected value")
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.timerFree) > 1 {
		t.Errorf("timer free list grew to %d after %d timed waits, want at most 1 recycled timer", len(s.timerFree), waits)
	}
}

func TestChanQueueSteadyStateAllocs(t *testing.T) {
	// A buffered channel holding a standing backlog: every Send appends
	// behind the head and every Recv pops it. Once warm, the queue reuses
	// its backing array, so the loop allocates nothing, and the array
	// stays bounded by the backlog rather than by the message count.
	s := New()
	p := &Proc{sim: s, name: "x"}
	c := NewChan[int](s, 8)
	for i := 0; i < 3; i++ {
		c.Send(p, i)
	}
	next, want := 3, 0
	step := func() {
		c.Send(p, next)
		next++
		if got := c.Recv(p); got != want {
			t.Fatalf("recv %d, want %d", got, want)
		}
		want++
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("steady buffered send/recv allocates %v per cycle, want 0", allocs)
	}
	if c.Len() != 3 || cap(c.buf.items) > 8 {
		t.Errorf("backlog %d in a backing array of %d, want 3 in at most 8", c.Len(), cap(c.buf.items))
	}
}

func TestChanQueueDropsDelivered(t *testing.T) {
	// Popped slots are zeroed: a delivered message's slice is not kept
	// reachable from the channel's backing array.
	s := New()
	p := &Proc{sim: s, name: "x"}
	c := NewChan[[]byte](s, 4)
	for i := 0; i < 4; i++ {
		c.Send(p, make([]byte, 8))
	}
	c.Recv(p)
	c.Recv(p) // two live messages left, behind a two-slot dead prefix
	q := &c.buf
	for i, b := range q.items[:cap(q.items)] {
		if live := i >= q.head && i < len(q.items); b != nil && !live {
			t.Errorf("slot %d still references a delivered message (live window [%d,%d))", i, q.head, len(q.items))
		}
	}
}

func TestChanPingPongReusesWaiters(t *testing.T) {
	// Two processes bounce a counter over one channel, each blocking in
	// Recv until the other's Send, so every round parks a receiver. Each
	// process keeps its receive waiter, and its Proc shell keeps it
	// across Reset, so a warm Reset+Spawn+Run cycle allocates nothing.
	const rounds = 256
	s := New()
	c := NewChan[int](s, 1)
	ping := func(sp *Proc) {
		for k := 0; k < rounds; k++ {
			c.Send(sp, 2*k)
			if got := c.Recv(sp); got != 2*k+1 {
				panic(fmt.Sprintf("ping got %d, want %d", got, 2*k+1))
			}
		}
	}
	pong := func(sp *Proc) {
		for k := 0; k < rounds; k++ {
			if got := c.Recv(sp); got != 2*k {
				panic(fmt.Sprintf("pong got %d, want %d", got, 2*k))
			}
			sp.Sleep(1)
			c.Send(sp, 2*k+1)
		}
	}
	cycle := func() {
		s.Reset()
		s.Spawn("pong", pong)
		s.Spawn("ping", ping)
		if err := s.Run(); err != nil {
			panic(err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("ping-pong cycle of %d rounds allocates %v, want 0", rounds, allocs)
	}
}

// TestSleepStepsAllocs: a warm Reset+Spawn+Run cycle of 16 contending
// processes, each running a 64-sleep stepper, allocates nothing, like
// the same cycle written as Sleep loops.
func TestSleepStepsAllocs(t *testing.T) {
	const procs, sleeps = 16, 64
	s := New()
	names := make([]string, procs)
	bodies := make([]func(*Proc), procs)
	for p := 0; p < procs; p++ {
		st := &cycleStepper{p: p, n: sleeps}
		names[p] = fmt.Sprintf("p%d", p)
		bodies[p] = func(sp *Proc) {
			st.k = 0
			sp.SleepSteps(st.sleep(), st)
		}
	}
	cycle := func() {
		s.Reset()
		for p := 0; p < procs; p++ {
			s.Spawn(names[p], bodies[p])
		}
		if err := s.Run(); err != nil {
			panic(err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("contended stepper cycle allocates %v, want 0", allocs)
	}
}
