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

	sendq queue[*sendWaiter[T]]
	recvq queue[*recvWaiter[T]]
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

// queue is a FIFO over one reused backing array; it holds a channel's
// buffered messages and its parked senders and receivers. pop advances
// a head index and zeroes the slot it leaves, so a delivered message is
// not pinned; a drained queue restarts at the front of its array, and
// once the dead prefix passes half the length the live tail slides
// down, so push's append refills the same array instead of reallocating
// as the live window drifts along it, and a queue that never drains
// stays bounded by twice its peak occupancy.
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

// removeAt deletes the i-th live element (0 is the head), keeping the
// order of the rest. Only timed-out waiters leave from the middle.
func (q *queue[T]) removeAt(i int) {
	var zero T
	j := q.head + i
	n := len(q.items)
	copy(q.items[j:], q.items[j+1:])
	q.items[n-1] = zero
	q.items = q.items[:n-1]
	if q.head == n-1 {
		q.items, q.head = q.items[:0], 0
	}
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
	if c.recvq.len() > 0 && c.buf.len() == 0 {
		w := c.recvq.pop()
		w.val, w.ok = v, true
		w.disarm()
		w.p.wake(c.sim.now)
		return
	}
	if c.buf.len() < c.cap {
		c.buf.push(v)
		return
	}
	c.sendq.push(&sendWaiter[T]{p: p, val: v})
	p.block(blockedChanSend)
}

// TrySend delivers v without blocking; it reports whether the value was
// accepted.
func (c *Chan[T]) TrySend(v T) bool {
	if c.recvq.len() > 0 && c.buf.len() == 0 {
		w := c.recvq.pop()
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
		if c.sendq.len() > 0 {
			sw := c.sendq.pop()
			c.buf.push(sw.val)
			sw.ok = true
			sw.disarm()
			sw.p.wake(c.sim.now)
		}
		return v
	}
	if c.sendq.len() > 0 { // rendezvous: take directly from a parked sender
		sw := c.sendq.pop()
		sw.ok = true
		sw.disarm()
		sw.p.wake(c.sim.now)
		return sw.val
	}
	rw := waiterOf[T](p, nil)
	c.recvq.push(rw)
	p.block(blockedChanRecv)
	if !rw.ok {
		panic("sim: chan recv woke without a value")
	}
	return release(rw)
}

// waiterOf returns p's receive waiter for element type T, armed with
// tm. A process waits on one channel at a time, so it keeps one waiter
// per element type across all its blocking receives (and, as its Proc
// shell is recycled, across simulations); only the first allocates.
func waiterOf[T any](p *Proc, tm *timer) *recvWaiter[T] {
	rw, ok := p.recvWaiter.(*recvWaiter[T])
	if !ok {
		rw = new(recvWaiter[T])
		p.recvWaiter = rw
	}
	rw.p, rw.tm = p, tm
	return rw
}

// release returns the value a woken waiter carried and zeroes the
// waiter, which no queue references any more, for its next wait: a
// stale ok or val would answer the next receive, a stale tm (already
// back on the simulation's timer free list) would let that receive
// cancel another process's deadline, and a kept val would pin the
// delivered message.
func release[T any](rw *recvWaiter[T]) T {
	v := rw.val
	*rw = recvWaiter[T]{}
	return v
}

// TryRecv returns a message if one is immediately available.
func (c *Chan[T]) TryRecv() (T, bool) {
	var zero T
	if c.buf.len() > 0 {
		v := c.buf.pop()
		if c.sendq.len() > 0 {
			sw := c.sendq.pop()
			c.buf.push(sw.val)
			sw.ok = true
			sw.disarm()
			sw.p.wake(c.sim.now)
		}
		return v, true
	}
	if c.sendq.len() > 0 {
		sw := c.sendq.pop()
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
	rw := waiterOf[T](p, c.sim.scheduleTimer(p, c.sim.now+d))
	c.recvq.push(rw)
	p.block(blockedChanRecvTimed)
	if rw.ok {
		return release(rw), true
	}
	// The deadline fired: withdraw from the waiter queue so a later
	// sender cannot hand a value (and a wake) to a process that left.
	for i, w := range c.recvq.items[c.recvq.head:] {
		if w == rw {
			c.recvq.removeAt(i)
			break
		}
	}
	release(rw)
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
	c.sendq.push(sw)
	p.block(blockedChanSendTimed)
	if sw.ok {
		return true
	}
	for i, w := range c.sendq.items[c.sendq.head:] {
		if w == sw {
			c.sendq.removeAt(i)
			break
		}
	}
	return false
}
