package shm

import (
	"testing"

	"camc/internal/sim"
)

// TestPipelineAllocs pins the untraced cell pipeline's allocations: a
// warm 64-cell Send/Recv pair and a warm 64-cell Exchange pair, re-run
// on a reset simulation whose queues already exist, with no recorder,
// no payload bytes and no payload digests. Such a cycle allocates
// nothing: an argument built for a trace edge or span on every cell
// would show up here as one allocation per cell.
func TestPipelineAllocs(t *testing.T) {
	s, node, tr, procs := fixture(2, false)
	size := 64 * int64(node.Arch.ShmCellSize)
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
