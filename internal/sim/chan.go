package sim

// Chan is a typed message channel operating in virtual time. A Chan with
// capacity zero is a rendezvous channel: Send blocks until a receiver
// takes the value. With capacity > 0, Send blocks only when the buffer is
// full. Message order and waiter wake-up order are FIFO, so channel
// behaviour is deterministic.
//
// Chan transfers are instantaneous in virtual time: any transfer cost is
// the caller's responsibility (the transports layer costs separately).
type Chan[T any] struct {
	sim *Simulation
	cap int
	buf queue[T]

	sendq []*sendWaiter[T]
	recvq []*recvWaiter[T]
}

type sendWaiter[T any] struct {
	p   *Proc
	val T
	ok  bool   // value taken by a receiver (vs. timed out)
	tm  *timer // deadline, nil for untimed sends
}

type recvWaiter[T any] struct {
	p   *Proc
	val T
	ok  bool
	tm  *timer // deadline, nil for untimed receives
}

// disarm cancels a timed waiter's deadline. Every wake path must call it
// before wake: a timed waiter has two possible resume sources (its timer
// and its peer), and a suspended process may be resumed exactly once.
func (w *sendWaiter[T]) disarm() {
	if w.tm != nil {
		w.tm.cancel()
		w.tm = nil
	}
}

func (w *recvWaiter[T]) disarm() {
	if w.tm != nil {
		w.tm.cancel()
		w.tm = nil
	}
}

// queue is a FIFO over one reused backing array. pop advances a head
// index and zeroes the slot it leaves, so a delivered message is not
// pinned; a drained queue restarts at the front of its array, and once
// the dead prefix passes half the length the live tail slides down, so
// push's append refills the same array instead of reallocating as the
// live window drifts along it, and a queue that never drains stays
// bounded by twice its peak occupancy.
type queue[T any] struct {
	items []T
	head  int
}

func (q *queue[T]) len() int { return len(q.items) - q.head }

func (q *queue[T]) push(v T) { q.items = append(q.items, v) }

func (q *queue[T]) pop() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if n := len(q.items); q.head == n {
		q.items, q.head = q.items[:0], 0
	} else if 2*q.head > n {
		live := copy(q.items, q.items[q.head:])
		clear(q.items[live:])
		q.items, q.head = q.items[:live], 0
	}
	return v
}

// NewChan creates a channel with the given buffer capacity (0 for
// rendezvous semantics).
func NewChan[T any](s *Simulation, capacity int) *Chan[T] {
	if capacity < 0 {
		panic("sim: negative channel capacity")
	}
	return &Chan[T]{sim: s, cap: capacity}
}

// Len returns the number of buffered messages.
func (c *Chan[T]) Len() int { return c.buf.len() }

// Send delivers v, blocking in virtual time until the channel can accept
// it.
func (c *Chan[T]) Send(p *Proc, v T) {
	// Direct hand-off to a waiting receiver preserves FIFO order only
	// when no messages are buffered ahead of v.
	if len(c.recvq) > 0 && c.buf.len() == 0 {
		w := c.recvq[0]
		c.recvq = c.recvq[1:]
		w.val, w.ok = v, true
		w.disarm()
		w.p.wake(c.sim.now)
		return
	}
	if c.buf.len() < c.cap {
		c.buf.push(v)
		return
	}
	sw := &sendWaiter[T]{p: p, val: v}
	c.sendq = append(c.sendq, sw)
	p.block(blockedChanSend)
}

// TrySend delivers v without blocking; it reports whether the value was
// accepted.
func (c *Chan[T]) TrySend(v T) bool {
	if len(c.recvq) > 0 && c.buf.len() == 0 {
		w := c.recvq[0]
		c.recvq = c.recvq[1:]
		w.val, w.ok = v, true
		w.disarm()
		w.p.wake(c.sim.now)
		return true
	}
	if c.buf.len() < c.cap {
		c.buf.push(v)
		return true
	}
	return false
}

// Recv blocks in virtual time until a message is available and returns it.
func (c *Chan[T]) Recv(p *Proc) T {
	if c.buf.len() > 0 {
		v := c.buf.pop()
		// A parked sender can now occupy the freed slot.
		if len(c.sendq) > 0 {
			sw := c.sendq[0]
			c.sendq = c.sendq[1:]
			c.buf.push(sw.val)
			sw.ok = true
			sw.disarm()
			sw.p.wake(c.sim.now)
		}
		return v
	}
	if len(c.sendq) > 0 { // rendezvous: take directly from a parked sender
		sw := c.sendq[0]
		c.sendq = c.sendq[1:]
		sw.ok = true
		sw.disarm()
		sw.p.wake(c.sim.now)
		return sw.val
	}
	rw := &recvWaiter[T]{p: p}
	c.recvq = append(c.recvq, rw)
	p.block(blockedChanRecv)
	if !rw.ok {
		panic("sim: chan recv woke without a value")
	}
	return rw.val
}

// TryRecv returns a message if one is immediately available.
func (c *Chan[T]) TryRecv() (T, bool) {
	var zero T
	if c.buf.len() > 0 {
		v := c.buf.pop()
		if len(c.sendq) > 0 {
			sw := c.sendq[0]
			c.sendq = c.sendq[1:]
			c.buf.push(sw.val)
			sw.ok = true
			sw.disarm()
			sw.p.wake(c.sim.now)
		}
		return v, true
	}
	if len(c.sendq) > 0 {
		sw := c.sendq[0]
		c.sendq = c.sendq[1:]
		sw.ok = true
		sw.disarm()
		sw.p.wake(c.sim.now)
		return sw.val, true
	}
	return zero, false
}

// RecvTimeout is Recv with a virtual-time deadline: it returns (v, true)
// if a message arrives within d microseconds of now, and (zero, false)
// otherwise. A message available immediately never times out, and a
// receive that completes in time is indistinguishable from a plain Recv —
// same wake instant, same dispatch count (the cancelled deadline event is
// discarded unprocessed). When a message lands exactly at the deadline
// the timeout wins: its event was scheduled first, so it has the earlier
// sequence number at the tied instant.
func (c *Chan[T]) RecvTimeout(p *Proc, d Time) (T, bool) {
	var zero T
	if d < 0 {
		panic("sim: negative recv timeout")
	}
	if v, ok := c.TryRecv(); ok {
		return v, true
	}
	rw := &recvWaiter[T]{p: p, tm: c.sim.scheduleTimer(p, c.sim.now+d)}
	c.recvq = append(c.recvq, rw)
	p.block(blockedChanRecvTimed)
	if rw.ok {
		return rw.val, true
	}
	// The deadline fired: withdraw from the waiter queue so a later
	// sender cannot hand a value (and a wake) to a process that left.
	for i, w := range c.recvq {
		if w == rw {
			c.recvq = append(c.recvq[:i], c.recvq[i+1:]...)
			break
		}
	}
	return zero, false
}

// SendTimeout is Send with a virtual-time deadline: it reports whether
// the channel accepted v within d microseconds of now. Like RecvTimeout,
// a send that completes in time is indistinguishable from a plain Send.
func (c *Chan[T]) SendTimeout(p *Proc, v T, d Time) bool {
	if d < 0 {
		panic("sim: negative send timeout")
	}
	if c.TrySend(v) {
		return true
	}
	sw := &sendWaiter[T]{p: p, val: v, tm: c.sim.scheduleTimer(p, c.sim.now+d)}
	c.sendq = append(c.sendq, sw)
	p.block(blockedChanSendTimed)
	if sw.ok {
		return true
	}
	for i, w := range c.sendq {
		if w == sw {
			c.sendq = append(c.sendq[:i], c.sendq[i+1:]...)
			break
		}
	}
	return false
}
