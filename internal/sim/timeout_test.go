package sim

import "testing"

// TestRecvTimeoutExpires pins the basic deadline semantics: nothing
// arrives, the receiver resumes exactly at now+d with ok=false.
func TestRecvTimeoutExpires(t *testing.T) {
	s := New()
	c := NewChan[int](s, 0)
	s.Spawn("rx", func(p *Proc) {
		v, ok := c.RecvTimeout(p, 25)
		if ok {
			t.Errorf("got value %d, want timeout", v)
		}
		if p.Now() != 25 {
			t.Errorf("woke at %g, want 25", p.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRecvTimeoutDelivery: a message inside the window is delivered at
// its true arrival instant, and the cancelled deadline never fires.
func TestRecvTimeoutDelivery(t *testing.T) {
	s := New()
	c := NewChan[int](s, 0)
	s.Spawn("rx", func(p *Proc) {
		v, ok := c.RecvTimeout(p, 100)
		if !ok || v != 7 {
			t.Errorf("got (%d,%v), want (7,true)", v, ok)
		}
		if p.Now() != 10 {
			t.Errorf("woke at %g, want 10", p.Now())
		}
		// The cancelled deadline must not resurface later.
		p.Sleep(200)
	})
	s.Spawn("tx", func(p *Proc) {
		p.Sleep(10)
		c.Send(p, 7)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 210 {
		t.Errorf("end time %g, want 210", s.Now())
	}
}

// TestRecvTimeoutImmediate: a buffered message never times out, even
// with a zero deadline.
func TestRecvTimeoutImmediate(t *testing.T) {
	s := New()
	c := NewChan[int](s, 1)
	s.Spawn("a", func(p *Proc) {
		c.Send(p, 3)
		if v, ok := c.RecvTimeout(p, 0); !ok || v != 3 {
			t.Errorf("got (%d,%v), want (3,true)", v, ok)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRecvTimeoutWithdraws: after a timeout the waiter must be gone from
// the queue, so a later send pairs with the *next* receiver (or buffers)
// rather than waking a process that left.
func TestRecvTimeoutWithdraws(t *testing.T) {
	s := New()
	c := NewChan[int](s, 1)
	got := -1
	s.Spawn("rx1", func(p *Proc) {
		if _, ok := c.RecvTimeout(p, 5); ok {
			t.Error("rx1 expected timeout")
		}
		p.Sleep(100) // stay alive past the send; must not be woken by it
	})
	s.Spawn("tx", func(p *Proc) {
		p.Sleep(20)
		c.Send(p, 9)
	})
	s.Spawn("rx2", func(p *Proc) {
		p.Sleep(30)
		got = c.Recv(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Errorf("rx2 got %d, want 9", got)
	}
}

// TestSendTimeoutExpires: a full channel with no receiver times the
// sender out at the deadline, and the value is not left behind.
func TestSendTimeoutExpires(t *testing.T) {
	s := New()
	c := NewChan[int](s, 1)
	s.Spawn("tx", func(p *Proc) {
		c.Send(p, 1) // fills the buffer
		if c.SendTimeout(p, 2, 15) {
			t.Error("send into full chan with no receiver succeeded")
		}
		if p.Now() != 15 {
			t.Errorf("woke at %g, want 15", p.Now())
		}
	})
	s.Spawn("late-rx", func(p *Proc) {
		p.Sleep(50)
		if v := c.Recv(p); v != 1 {
			t.Errorf("got %d, want 1 (timed-out value must be withdrawn)", v)
		}
		if v, ok := c.TryRecv(); ok {
			t.Errorf("unexpected second value %d", v)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSendTimeoutCompletes: a receiver inside the window unblocks the
// timed sender at the true hand-off instant.
func TestSendTimeoutCompletes(t *testing.T) {
	s := New()
	c := NewChan[int](s, 0)
	s.Spawn("tx", func(p *Proc) {
		if !c.SendTimeout(p, 4, 100) {
			t.Error("send timed out despite receiver at t=10")
		}
		if p.Now() != 10 {
			t.Errorf("woke at %g, want 10", p.Now())
		}
	})
	s.Spawn("rx", func(p *Proc) {
		p.Sleep(10)
		if v := c.Recv(p); v != 4 {
			t.Errorf("got %d, want 4", v)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTimeoutTieGoesToDeadline documents the deterministic tie rule: a
// message landing exactly at the deadline instant loses to the timeout,
// because the deadline event carries the earlier sequence number.
func TestTimeoutTieGoesToDeadline(t *testing.T) {
	s := New()
	c := NewChan[int](s, 0)
	s.Spawn("rx", func(p *Proc) {
		if _, ok := c.RecvTimeout(p, 10); ok {
			t.Error("tie at the deadline should time out")
		}
	})
	s.Spawn("tx", func(p *Proc) {
		p.Sleep(10)
		if c.TrySend(5) {
			t.Error("TrySend found a waiter that should have withdrawn")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTimedRecvDispatchTransparent: a timed receive that completes in
// time must not change the dispatch count relative to a plain receive —
// the cancelled deadline is discarded unprocessed. This is what makes a
// liveness-enabled healthy run latency- and schedule-identical to a
// disabled one.
func TestTimedRecvDispatchTransparent(t *testing.T) {
	run := func(timed bool) (Time, uint64) {
		s := New()
		c := NewChan[int](s, 0)
		s.Spawn("rx", func(p *Proc) {
			if timed {
				if _, ok := c.RecvTimeout(p, 1000); !ok {
					t.Error("unexpected timeout")
				}
			} else {
				c.Recv(p)
			}
			p.Sleep(5)
		})
		s.Spawn("tx", func(p *Proc) {
			p.Sleep(3)
			c.Send(p, 1)
			p.Sleep(7)
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Now(), s.EventsProcessed()
	}
	plainT, plainN := run(false)
	timedT, timedN := run(true)
	if plainT != timedT || plainN != timedN {
		t.Errorf("timed run (t=%g, n=%d) differs from plain (t=%g, n=%d)",
			timedT, timedN, plainT, plainN)
	}
}

// TestRecycledRecvWaiterIsClean: a process's reused receive waiter
// carries nothing from its last wait. A receive after a delivery must
// still time out (a stale ok/val would hand back the old value), and a
// plain receive after a timeout must not cancel the deadline that the
// expired timer was recycled into (a stale tm would, and the bystander
// holding it would never wake).
func TestRecycledRecvWaiterIsClean(t *testing.T) {
	s := New()
	c := NewChan[int](s, 0)
	other := NewChan[int](s, 0)
	s.Spawn("rx", func(p *Proc) {
		if v, ok := c.RecvTimeout(p, 100); !ok || v != 7 || p.Now() != 10 {
			t.Errorf("first receive: (%d,%v) at %g, want (7,true) at 10", v, ok, p.Now())
		}
		if v, ok := c.RecvTimeout(p, 5); ok || v != 0 || p.Now() != 15 {
			t.Errorf("timed-out receive: (%d,%v) at %g, want (0,false) at 15", v, ok, p.Now())
		}
		if v := c.Recv(p); v != 9 || p.Now() != 30 {
			t.Errorf("plain receive: %d at %g, want 9 at 30", v, p.Now())
		}
	})
	s.Spawn("bystander", func(p *Proc) {
		p.Sleep(16) // its deadline reuses the timer that expired at 15
		if _, ok := other.RecvTimeout(p, 50); ok || p.Now() != 66 {
			t.Errorf("bystander: ok=%v at %g, want a timeout at 66", ok, p.Now())
		}
	})
	s.Spawn("tx", func(p *Proc) {
		p.Sleep(10)
		c.Send(p, 7)
		p.Sleep(20)
		c.Send(p, 9)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
