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

// Each blocking operation is its step form followed, when that parks,
// by the wait and the step form's completion: a process blocked in Send
// or Recv and a Stepper parked in SendStep or RecvStep sit in the same
// queues, are woken by the same hand-offs and leave at the same
// dispatch.

// Send delivers v, blocking in virtual time until the channel can accept
// it.
func (c *Chan[T]) Send(p *Proc, v T) {
	if !c.SendStep(p, &v) {
		p.yieldToken()
		c.Sent(p)
	}
}

// SendStep is Send as a Stepper's step: it delivers *v as Send would
// and reports true, or queues p as a sender and reports false. The
// step must then return StepPark; when p next steps, the value has been
// taken, and the step calls Sent.
func (c *Chan[T]) SendStep(p *Proc, v *T) bool {
	if c.deliver(v) {
		return true
	}
	c.sendq.push(sendWaiterOf(p, v, nil))
	p.blockedOn = blockedChanSend
	return false
}

// TrySend delivers v without blocking; it reports whether the value was
// accepted.
func (c *Chan[T]) TrySend(v T) bool { return c.deliver(&v) }

// deliver hands *v to the longest-waiting receiver, or buffers it, and
// reports whether either was possible. Direct hand-off to a waiting
// receiver preserves FIFO order only when no messages are buffered
// ahead of v.
func (c *Chan[T]) deliver(v *T) bool {
	if c.recvq.len() > 0 && c.buf.len() == 0 {
		w := c.recvq.pop()
		w.val, w.ok = *v, true
		w.disarm()
		w.p.wake(c.sim.now)
		return true
	}
	if c.buf.len() < c.cap {
		c.buf.push(*v)
		return true
	}
	return false
}

// Recv blocks in virtual time until a message is available and returns it.
func (c *Chan[T]) Recv(p *Proc) T {
	var v T
	if !c.RecvStep(p, &v) {
		p.yieldToken()
		c.Received(p, &v)
	}
	return v
}

// RecvStep is Recv as a Stepper's step: it takes the next message into
// *v as Recv would and reports true, or queues p as a receiver and
// reports false. The step must then return StepPark and, when p next
// steps, call Received for the message.
func (c *Chan[T]) RecvStep(p *Proc, v *T) bool {
	if c.take(v) {
		return true
	}
	c.recvq.push(waiterOf[T](p, nil))
	p.blockedOn = blockedChanRecv
	return false
}

// take moves the next message into *v and reports whether there was
// one: the buffer's head, after which a parked sender can occupy the
// freed slot, or on a rendezvous channel a parked sender's value.
func (c *Chan[T]) take(v *T) bool {
	if c.buf.len() > 0 {
		*v = c.buf.pop()
		if c.sendq.len() > 0 {
			sw := c.sendq.pop()
			c.buf.push(sw.val)
			c.taken(sw)
		}
		return true
	}
	if c.sendq.len() > 0 {
		sw := c.sendq.pop()
		*v = sw.val
		c.taken(sw)
		return true
	}
	return false
}

// taken wakes a parked sender whose value a receiver has just taken,
// dropping the waiter's copy so it does not pin the message.
func (c *Chan[T]) taken(sw *sendWaiter[T]) {
	var zero T
	sw.val, sw.ok = zero, true
	sw.disarm()
	sw.p.wake(c.sim.now)
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

// sendWaiterOf returns p's send waiter for element type T, holding *v
// and armed with tm; like a receive waiter, it is kept across sends.
func sendWaiterOf[T any](p *Proc, v *T, tm *timer) *sendWaiter[T] {
	sw, ok := p.sendWaiter.(*sendWaiter[T])
	if !ok {
		sw = new(sendWaiter[T])
		p.sendWaiter = sw
	}
	sw.p, sw.val, sw.ok, sw.tm = p, *v, false, tm
	return sw
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
	var v T
	ok := c.take(&v)
	return v, ok
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
	var v T
	if c.RecvTimeoutStep(p, &v, d) {
		return v, true
	}
	p.yieldToken()
	ok := c.Received(p, &v)
	return v, ok
}

// RecvTimeoutStep is RecvTimeout as a Stepper's step: it takes a
// message available now into *v and reports true, or queues p as a
// receiver with a deadline d from now and reports false. The step must
// then return StepPark and, when p next steps, call Received to learn
// whether a message came in time.
func (c *Chan[T]) RecvTimeoutStep(p *Proc, v *T, d Time) bool {
	if d < 0 {
		panic("sim: negative recv timeout")
	}
	if c.take(v) {
		return true
	}
	c.recvq.push(waiterOf[T](p, c.sim.scheduleTimer(p, c.sim.now+d)))
	p.blockedOn = blockedChanRecvTimed
	return false
}

// Received completes a RecvStep or RecvTimeoutStep that parked, once p
// runs again: it moves the message into *v and reports true, or, when
// a timed receive's deadline fired first, withdraws p from the waiter
// queue — so a later sender cannot hand a value (and a wake) to a
// process that left — and reports false.
func (c *Chan[T]) Received(p *Proc, v *T) bool {
	rw := p.recvWaiter.(*recvWaiter[T])
	if rw.ok {
		*v = release(rw)
		return true
	}
	if rw.tm == nil {
		panic("sim: chan recv woke without a value")
	}
	for i, w := range c.recvq.items[c.recvq.head:] {
		if w == rw {
			c.recvq.removeAt(i)
			break
		}
	}
	release(rw)
	return false
}

// SendTimeout is Send with a virtual-time deadline: it reports whether
// the channel accepted v within d microseconds of now. Like RecvTimeout,
// a send that completes in time is indistinguishable from a plain Send.
func (c *Chan[T]) SendTimeout(p *Proc, v T, d Time) bool {
	if c.SendTimeoutStep(p, &v, d) {
		return true
	}
	p.yieldToken()
	return c.Sent(p)
}

// SendTimeoutStep is SendTimeout as a Stepper's step: it delivers *v
// now and reports true, or queues p as a sender with a deadline d from
// now and reports false. The step must then return StepPark and, when p
// next steps, call Sent to learn whether the value was taken in time.
func (c *Chan[T]) SendTimeoutStep(p *Proc, v *T, d Time) bool {
	if d < 0 {
		panic("sim: negative send timeout")
	}
	if c.deliver(v) {
		return true
	}
	c.sendq.push(sendWaiterOf(p, v, c.sim.scheduleTimer(p, c.sim.now+d)))
	p.blockedOn = blockedChanSendTimed
	return false
}

// Sent completes a SendStep or SendTimeoutStep that parked, once p runs
// again: it reports whether a receiver took the value, and otherwise —
// a timed send's deadline fired first — withdraws p from the sender
// queue.
func (c *Chan[T]) Sent(p *Proc) bool {
	sw := p.sendWaiter.(*sendWaiter[T])
	ok := sw.ok
	if !ok {
		for i, w := range c.sendq.items[c.sendq.head:] {
			if w == sw {
				c.sendq.removeAt(i)
				break
			}
		}
	}
	*sw = sendWaiter[T]{}
	return ok
}
