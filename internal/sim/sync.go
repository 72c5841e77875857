package sim

// Mutex is a mutual-exclusion lock in virtual time with FIFO hand-off.
type Mutex struct {
	sim     *Simulation
	held    bool
	waiters queue[*Proc]
}

// NewMutex returns an unlocked mutex.
func NewMutex(s *Simulation) *Mutex { return &Mutex{sim: s} }

// Lock acquires the mutex, blocking in virtual time while it is held.
func (m *Mutex) Lock(p *Proc) {
	if !m.held {
		m.held = true
		return
	}
	m.waiters.push(p)
	p.block(blockedMutex)
	// Ownership was transferred to us by Unlock; m.held stays true.
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.held }

// Waiters returns the number of processes queued on the mutex.
func (m *Mutex) Waiters() int { return m.waiters.len() }

// Unlock releases the mutex, handing it to the longest-waiting process if
// any.
func (m *Mutex) Unlock() {
	if !m.held {
		panic("sim: unlock of unlocked mutex")
	}
	if m.waiters.len() == 0 {
		m.held = false
		return
	}
	next := m.waiters.pop()
	next.wake(m.sim.now) // ownership transfers; held remains true
}
