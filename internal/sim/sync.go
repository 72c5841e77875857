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
	if !m.Acquire(p) {
		p.yieldToken()
		// Ownership was transferred to us by Unlock; m.held stays true.
	}
}

// Acquire takes the mutex for p and reports true if it was free.
// Otherwise it queues p as a waiter and reports false: p must then wait
// with no event, as a Stepper does by returning StepPark, until
// Unlock's hand-off wakes it holding the mutex.
func (m *Mutex) Acquire(p *Proc) bool {
	if !m.held {
		m.held = true
		return true
	}
	m.waiters.push(p)
	p.blockedOn = blockedMutex
	return false
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
