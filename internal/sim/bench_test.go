package sim

import (
	"fmt"
	"testing"
)

// BenchmarkDispatch measures the scheduler's per-event cost in the
// contended regime: 16 processes ping-ponging short sleeps so nearly
// every dispatch switches to a different process's coroutine. The bodies
// loop b.N rounds inside one simulation, so the reported allocs/op are
// the steady-state dispatch loop alone — pinned at 0 by
// internal/sim/alloc_test.go.
func BenchmarkDispatch(b *testing.B) {
	const procs, sleeps = 16, 64
	b.ReportAllocs()
	s := New()
	for p := 0; p < procs; p++ {
		p := p
		s.Spawn(fmt.Sprintf("p%d", p), func(sp *Proc) {
			for i := 0; i < b.N; i++ {
				for k := 0; k < sleeps; k++ {
					sp.Sleep(float64(1 + (p+k)%3))
				}
			}
		})
	}
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(s.EventsProcessed()), "ns/event")
}

// cycleStepper runs BenchmarkDispatch's sleep sequence for process p
// as a Stepper: its k-th sleep is 1 + (p + k mod 64) mod 3, until n
// sleeps have run.
type cycleStepper struct{ p, k, n int }

func (st *cycleStepper) sleep() Time { return float64(1 + (st.p+st.k%64)%3) }

func (st *cycleStepper) Step() Time {
	if st.k++; st.k == st.n {
		return StepDone
	}
	return st.sleep()
}

// BenchmarkDispatchSteps is BenchmarkDispatch with each process's
// sleeps run as a Stepper: the same events in the same order, but the
// dispatcher calls the steps itself, so a contended sleep costs no
// coroutine switch.
func BenchmarkDispatchSteps(b *testing.B) {
	const procs, sleeps = 16, 64
	b.ReportAllocs()
	s := New()
	for p := 0; p < procs; p++ {
		st := &cycleStepper{p: p, n: b.N * sleeps}
		s.Spawn(fmt.Sprintf("p%d", p), func(sp *Proc) { sp.SleepSteps(st.sleep(), st) })
	}
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(s.EventsProcessed()), "ns/event")
}

// BenchmarkDispatchSelfWake measures the dominant pattern of the kernel
// hot path: one process advancing through a long run of sleeps with no
// competing event, the case the optimised scheduler short-circuits.
func BenchmarkDispatchSelfWake(b *testing.B) {
	b.ReportAllocs()
	const sleeps = 1024
	s := New()
	s.Spawn("solo", func(sp *Proc) {
		for i := 0; i < b.N; i++ {
			for k := 0; k < sleeps; k++ {
				sp.Sleep(0.5)
			}
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*sleeps), "ns/event")
}

// BenchmarkSchedule measures the raw event-heap push/pop cycle.
func BenchmarkSchedule(b *testing.B) {
	b.ReportAllocs()
	s := New()
	p := &Proc{sim: s, name: "x"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.schedule(p, float64(i%64))
		s.popEvent()
	}
}

// BenchmarkRespawn measures a full Reset+Spawn+Run cycle on a warmed
// simulation — the measure.Collective sweep pattern the Proc and timer
// free lists and the worker pool exist for. It allocates nothing in
// steady state.
func BenchmarkRespawn(b *testing.B) {
	const procs, sleeps = 16, 64
	names := make([]string, procs)
	bodies := make([]func(*Proc), procs)
	for p := 0; p < procs; p++ {
		p := p
		names[p] = fmt.Sprintf("p%d", p)
		bodies[p] = func(sp *Proc) {
			for k := 0; k < sleeps; k++ {
				sp.Sleep(float64(1 + (p+k)%3))
			}
		}
	}
	s := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		for p := 0; p < procs; p++ {
			s.Spawn(names[p], bodies[p])
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
