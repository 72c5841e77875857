package sim

import "testing"

func TestMutexLockAndState(t *testing.T) {
	s := New()
	m := NewMutex(s)
	s.Spawn("a", func(p *Proc) {
		if m.Locked() {
			t.Error("fresh mutex locked")
		}
		m.Lock(p) // free: acquired without blocking
		if p.Now() != 0 {
			t.Errorf("Lock on a free mutex blocked until %v", p.Now())
		}
		if !m.Locked() {
			t.Error("held mutex reports unlocked")
		}
		if m.Waiters() != 0 {
			t.Errorf("waiters = %d", m.Waiters())
		}
		m.Unlock()
		if m.Locked() {
			t.Error("released mutex reports locked")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMutexWaitersCount(t *testing.T) {
	s := New()
	m := NewMutex(s)
	s.Spawn("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(10)
		if m.Waiters() != 2 {
			t.Errorf("waiters = %d, want 2", m.Waiters())
		}
		m.Unlock()
	})
	for i := 0; i < 2; i++ {
		s.Spawn("waiter", func(p *Proc) {
			p.Sleep(1)
			m.Lock(p)
			m.Unlock()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChanNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewChan[int](New(), -1)
}

func TestChanLen(t *testing.T) {
	s := New()
	c := NewChan[int](s, 4)
	s.Spawn("a", func(p *Proc) {
		c.Send(p, 1)
		c.Send(p, 2)
		if c.Len() != 2 {
			t.Errorf("len = %d, want 2", c.Len())
		}
		c.Recv(p)
		if c.Len() != 1 {
			t.Errorf("len = %d, want 1", c.Len())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcAccessors(t *testing.T) {
	s := New()
	var id int
	var name string
	p := s.Spawn("myproc", func(p *Proc) {
		id = p.id
		name = p.Name()
		if p.sim != s {
			t.Error("sim mismatch")
		}
		p.Yield()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if id != p.id || name != "myproc" {
		t.Fatalf("accessors: id=%d name=%q", id, name)
	}
}

func TestRunReentrantPanics(t *testing.T) {
	s := New()
	s.Spawn("a", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected reentrant Run panic")
			}
		}()
		_ = s.Run()
	})
	defer func() { recover() }()
	_ = s.Run()
}
