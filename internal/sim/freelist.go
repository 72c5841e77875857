package sim

import "sync"

// FreeList recycles the states of Steppers across operations. Each
// operation handed to SleepSteps needs its state off the coroutine
// stack, and a state allocated per operation would cost one allocation
// per message or copy run. Simulations on parallel goroutines share a
// list, hence the mutex; a list per node or transport would allocate
// afresh for every one a harness builds. The zero value is an empty
// list that keeps at most DefaultFreeListCap states.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []*T
	// Cap caps the states the list keeps, so a run with many operations
	// in flight at once does not pin all their states for the rest of
	// the process; 0 means DefaultFreeListCap.
	Cap int
}

// DefaultFreeListCap is a FreeList's cap when its Cap is 0.
const DefaultFreeListCap = 1024

// Get returns a recycled state, or a new zero one.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return x
	}
	l.mu.Unlock()
	return new(T)
}

// Put keeps x for a later Get, unless the list is full. The caller
// first clears whatever x should not pin, and may keep what the next
// use reuses, such as a slice's array.
func (l *FreeList[T]) Put(x *T) {
	c := l.Cap
	if c == 0 {
		c = DefaultFreeListCap
	}
	l.mu.Lock()
	if len(l.free) < c {
		l.free = append(l.free, x)
	}
	l.mu.Unlock()
}
