package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSleepAdvancesClock(t *testing.T) {
	s := New()
	var end Time
	s.Spawn("a", func(p *Proc) {
		p.Sleep(5)
		p.Sleep(2.5)
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 7.5 {
		t.Fatalf("end time = %g, want 7.5", end)
	}
	if s.Now() != 7.5 {
		t.Fatalf("sim clock = %g, want 7.5", s.Now())
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	s := New()
	s.Spawn("a", func(p *Proc) { p.Sleep(-1) })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from negative sleep")
		}
	}()
	_ = s.Run()
}

func TestSpawnOrderBreaksTies(t *testing.T) {
	s := New()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			p.Sleep(1)
			order = append(order, name)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[a b c]" {
		t.Fatalf("order = %v, want [a b c]", order)
	}
}

func TestProcPanicsPropagate(t *testing.T) {
	s := New()
	s.Spawn("boom", func(p *Proc) { panic("kapow") })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate from Run")
		}
	}()
	_ = s.Run()
}

func TestSpawnDuringRun(t *testing.T) {
	s := New()
	var childEnd Time
	s.Spawn("parent", func(p *Proc) {
		p.Sleep(3)
		s.Spawn("child", func(q *Proc) {
			q.Sleep(4)
			childEnd = q.Now()
		})
		p.Sleep(1)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if childEnd != 7 {
		t.Fatalf("child end = %g, want 7", childEnd)
	}
}

func TestRendezvousChan(t *testing.T) {
	s := New()
	c := NewChan[int](s, 0)
	var got int
	var sendDone, recvDone Time
	s.Spawn("sender", func(p *Proc) {
		p.Sleep(10)
		c.Send(p, 42)
		sendDone = p.Now()
	})
	s.Spawn("receiver", func(p *Proc) {
		got = c.Recv(p)
		recvDone = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
	if sendDone != 10 || recvDone != 10 {
		t.Fatalf("send/recv done at %g/%g, want 10/10", sendDone, recvDone)
	}
}

func TestBufferedChanFIFO(t *testing.T) {
	s := New()
	c := NewChan[int](s, 4)
	var got []int
	s.Spawn("sender", func(p *Proc) {
		for i := 0; i < 8; i++ {
			c.Send(p, i)
		}
	})
	s.Spawn("receiver", func(p *Proc) {
		for i := 0; i < 8; i++ {
			p.Sleep(1)
			got = append(got, c.Recv(p))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d (FIFO violated)", i, v, i)
		}
	}
}

func TestChanBlockedSenderResumes(t *testing.T) {
	s := New()
	c := NewChan[string](s, 1)
	var resumeAt Time
	s.Spawn("sender", func(p *Proc) {
		c.Send(p, "one") // buffered
		c.Send(p, "two") // blocks until receiver drains
		resumeAt = p.Now()
	})
	s.Spawn("receiver", func(p *Proc) {
		p.Sleep(5)
		if v := c.Recv(p); v != "one" {
			t.Errorf("first recv = %q, want one", v)
		}
		if v := c.Recv(p); v != "two" {
			t.Errorf("second recv = %q, want two", v)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if resumeAt != 5 {
		t.Fatalf("sender resumed at %g, want 5", resumeAt)
	}
}

func TestTrySendTryRecv(t *testing.T) {
	s := New()
	c := NewChan[int](s, 1)
	s.Spawn("a", func(p *Proc) {
		if _, ok := c.TryRecv(); ok {
			t.Error("TryRecv on empty chan succeeded")
		}
		if !c.TrySend(1) {
			t.Error("TrySend on empty chan failed")
		}
		if c.TrySend(2) {
			t.Error("TrySend on full chan succeeded")
		}
		v, ok := c.TryRecv()
		if !ok || v != 1 {
			t.Errorf("TryRecv = %d,%v, want 1,true", v, ok)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New()
	c := NewChan[int](s, 0)
	s.Spawn("stuck", func(p *Proc) { c.Recv(p) })
	err := s.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck: chan recv" {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

func TestMutexExclusionAndFIFO(t *testing.T) {
	s := New()
	m := NewMutex(s)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(Time(i)) // stagger arrivals: 0,1,2,3
			m.Lock(p)
			order = append(order, i)
			p.Sleep(10) // hold long enough that all others queue
			m.Unlock()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[0 1 2 3]" {
		t.Fatalf("lock order = %v, want FIFO [0 1 2 3]", order)
	}
	if s.Now() != 40 {
		t.Fatalf("end = %g, want 40 (serialized critical sections)", s.Now())
	}
}

func TestUnlockOfUnlockedMutexPanics(t *testing.T) {
	s := New()
	m := NewMutex(s)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Unlock()
}

// runPingPong builds a deterministic but nontrivial workload and returns
// a trace fingerprint, used to check reproducibility.
func runPingPong(seed int64, procs, msgs int) (Time, uint64, []int) {
	s := New()
	rng := rand.New(rand.NewSource(seed))
	chans := make([]*Chan[int], procs)
	for i := range chans {
		chans[i] = NewChan[int](s, rng.Intn(3))
	}
	delays := make([]Time, procs*msgs)
	for i := range delays {
		delays[i] = Time(rng.Intn(100)) / 10
	}
	var trace []int
	for i := 0; i < procs; i++ {
		i := i
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for m := 0; m < msgs; m++ {
				p.Sleep(delays[i*msgs+m])
				chans[(i+1)%procs].Send(p, i*1000+m)
				v := chans[i].Recv(p)
				trace = append(trace, v)
			}
		})
	}
	if err := s.Run(); err != nil {
		// A deadlock is a legitimate outcome for unlucky ring configs
		// (all-rendezvous channels); what matters is that it reproduces
		// identically, so fold it into the fingerprint.
		var dl *DeadlockError
		if !errors.As(err, &dl) {
			panic(err)
		}
		trace = append(trace, -len(dl.Blocked))
	}
	return s.Now(), s.EventsProcessed(), trace
}

func TestDeterminism(t *testing.T) {
	// Fixed generator source: a few percent of random ring configurations
	// legitimately deadlock (all-rendezvous channels with unlucky
	// timing), so time-seeded generation made this test flaky.
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(7))}
	f := func(seed int64) bool {
		t1, e1, tr1 := runPingPong(seed, 4, 5)
		t2, e2, tr2 := runPingPong(seed, 4, 5)
		if t1 != t2 || e1 != e2 || len(tr1) != len(tr2) {
			return false
		}
		for i := range tr1 {
			if tr1[i] != tr2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestClockMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		s := New()
		rng := rand.New(rand.NewSource(seed))
		last := Time(-1)
		ok := true
		for i := 0; i < 5; i++ {
			s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.Sleep(Time(rng.Intn(50)) / 7)
					if p.Now() < last {
						ok = false
					}
					last = p.Now()
				}
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestManyProcsStress drives 500 processes through one rendezvous: each
// arrives at a staggered instant, a gate process collects every arrival
// and then releases them all, and each released process sleeps once
// more. The last arrival is at t=16, so everything ends at t=17.
func TestManyProcsStress(t *testing.T) {
	s := New()
	n := 500
	arrive := NewChan[int](s, n)
	release := NewChan[int](s, n)
	s.Spawn("gate", func(p *Proc) {
		for i := 0; i < n; i++ {
			arrive.Recv(p)
		}
		for i := 0; i < n; i++ {
			release.Send(p, i)
		}
	})
	for i := 0; i < n; i++ {
		i := i
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(Time(i % 17))
			arrive.Send(p, i)
			release.Recv(p)
			p.Sleep(1)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 17 {
		t.Fatalf("end = %g, want 17", s.Now())
	}
}
