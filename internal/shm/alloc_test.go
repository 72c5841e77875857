package shm

import (
	"fmt"
	"testing"

	"camc/internal/sim"
)

// TestPipelineAllocs pins the untraced message operations'
// allocations: a warm 64-cell Send/Recv pair, a warm 64-cell Exchange
// pair, a warm run of 64 control messages each way and a control
// vector, re-run on a reset simulation whose queues already exist, with
// no recorder, no payload bytes and no payload digests. Such a cycle
// allocates nothing: an argument built for a trace edge or span on
// every cell, or an op state allocated per call, would show up here as
// one allocation per message.
func TestPipelineAllocs(t *testing.T) {
	s, node, tr, procs := fixture(2, false)
	size := 64 * int64(node.Arch.ShmCellSize)
	vec := make([]int64, 600)
	for _, tc := range []struct {
		name   string
		bodies [2]func(*sim.Proc)
	}{
		{"send-recv", [2]func(*sim.Proc){
			func(sp *sim.Proc) { tr.Send(sp, 0, 1, 5, procs[0], 0, size) },
			func(sp *sim.Proc) { tr.Recv(sp, 0, 1, 5, procs[1], 0, size) },
		}},
		{"exchange", [2]func(*sim.Proc){
			func(sp *sim.Proc) { tr.Exchange(sp, 0, 1, 1, 9, procs[0], 0, size, 1<<24, size) },
			func(sp *sim.Proc) { tr.Exchange(sp, 1, 0, 0, 9, procs[1], 0, size, 1<<24, size) },
		}},
		{"control", [2]func(*sim.Proc){
			func(sp *sim.Proc) {
				for i := 0; i < 64; i++ {
					tr.SendCtl(sp, 0, 1, 3, int64(i))
					tr.RecvCtl(sp, 1, 0, 4)
				}
			},
			func(sp *sim.Proc) {
				for i := 0; i < 64; i++ {
					tr.SendCtl(sp, 1, 0, 4, tr.RecvCtl(sp, 0, 1, 3))
				}
			},
		}},
		{"control vector", [2]func(*sim.Proc){
			func(sp *sim.Proc) { tr.sendCtlVec(sp, 0, 1, 6, vec) },
			func(sp *sim.Proc) { tr.recvCtlVec(sp, 0, 1, 6, len(vec)) },
		}},
	} {
		cycle := func() {
			s.Reset()
			s.Spawn("r0", tc.bodies[0])
			s.Spawn("r1", tc.bodies[1])
			if err := s.Run(); err != nil {
				panic(err)
			}
		}
		cycle() // warm: queues, workers, timers, free lists
		if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
			t.Errorf("%s: a warm 64-cell cycle allocates %v, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkPipeline runs a contended 16-rank ring exchange of 64 cells
// per rank on a reset simulation, untraced and dataless: the host cost
// of the shm cell pipeline, reported per cell moved (staged and
// drained) and per exchange.
func BenchmarkPipeline(b *testing.B) {
	const ranks, cells = 16, 64
	s, node, tr, procs := fixture(ranks, false)
	size := cells * int64(node.Arch.ShmCellSize)
	bodies, names := make([]func(*sim.Proc), ranks), make([]string, ranks)
	for me := range bodies {
		names[me] = fmt.Sprint("r", me)
		bodies[me] = func(sp *sim.Proc) {
			tr.Exchange(sp, me, (me+1)%ranks, (me+ranks-1)%ranks, 9, procs[me], 0, size, 1<<23, size)
		}
	}
	cycle := func() {
		s.Reset()
		for me, body := range bodies {
			s.Spawn(names[me], body)
		}
		if err := s.Run(); err != nil {
			panic(err)
		}
	}
	cycle() // warm: queues, workers, free lists
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ranks*cells), "ns/cell")
}
