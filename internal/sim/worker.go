//go:build go1.23

package sim

import (
	"iter"
	"sync"
)

// maxIdleWorkers caps the process-wide pool of idle workers. A run
// wider than the cap (the 64Ki-rank scale cells) creates the extra
// workers and stops them as their bodies finish, so one wide run does
// not pin its peak population of coroutine stacks for the rest of the
// process.
const maxIdleWorkers = 4096

// A worker is an iter.Pull coroutine that runs process bodies one after
// another. Run resumes it with next, the running body suspends with
// yield, and a worker whose body has ended goes back to the pool still
// suspended in yield, so its goroutine and stack serve the next spawn of
// any simulation. An idle worker references no Proc or Simulation.
type worker struct {
	p       *Proc // process being run; nil while idle
	next    func() (struct{}, bool)
	stop    func()
	yield   func(struct{}) bool
	stopped bool // set by halt: the body is being unwound, not finished
}

// workerStopped is the panic value that unwinds a body whose worker was
// stopped mid-run. runBody absorbs it like any panic, and run then
// leaves the simulation untouched.
type workerStopped struct{}

// workerPool is the process-wide LIFO of idle workers. The mutex is
// needed because par runs independent simulations on parallel
// goroutines; its lock also orders one simulation's last use of a
// worker before the next simulation's first. It is not a sync.Pool: a
// worker the collector dropped from one would strand its suspended
// goroutine.
var workerPool struct {
	sync.Mutex
	idle []*worker
}

// getWorker pops an idle worker, or starts a new coroutine when the
// pool is empty.
func getWorker() *worker {
	workerPool.Lock()
	if n := len(workerPool.idle); n > 0 {
		w := workerPool.idle[n-1]
		workerPool.idle[n-1] = nil
		workerPool.idle = workerPool.idle[:n-1]
		workerPool.Unlock()
		return w
	}
	workerPool.Unlock()
	w := new(worker)
	w.next, w.stop = iter.Pull(w.loop)
	return w
}

// putWorker returns a worker whose body ended to the pool, or stops it
// when the pool is full.
func putWorker(w *worker) {
	w.p = nil
	workerPool.Lock()
	if len(workerPool.idle) < maxIdleWorkers {
		workerPool.idle = append(workerPool.idle, w)
		workerPool.Unlock()
		return
	}
	workerPool.Unlock()
	w.halt()
}

// loop is the coroutine body: run the bound process, suspend until Run
// binds the next one, repeat until stopped. The process is read through
// w.p inside run, so no frame of a suspended idle worker holds it.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		w.p.run()
		if w.stopped || !yield(struct{}{}) {
			return
		}
	}
}

// suspend yields the running body back to Run. It returns when Run
// resumes the process, and unwinds the body instead when Run stops the
// worker.
func (w *worker) suspend() {
	if !w.yield(struct{}{}) {
		panic(workerStopped{})
	}
}

// halt stops the worker: a suspended body unwinds through workerStopped and
// the coroutine's goroutine exits. A halted worker is never pooled.
func (w *worker) halt() {
	w.stopped = true
	w.stop()
}
