package bench

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"camc/internal/arch"
	"camc/internal/cluster"
	"camc/internal/core"
)

// TestHierQuickShape runs the quick x11 matrix and checks the table
// layout the store hook depends on: one table per (arch, collective),
// arch display and collective word in the title, node counts down the
// side, one series per cluster design.
func TestHierQuickShape(t *testing.T) {
	skipIfRaceExpensive(t, "x11")
	tables := tablesOf(t, "x11", quick)
	lads := hierLadders()
	archs := arch.All()
	designs := cluster.Designs()
	if want := len(archs) * len(lads); len(tables) != want {
		t.Fatalf("x11 quick: %d tables, want %d", len(tables), want)
	}
	ti := 0
	for _, a := range archs {
		for _, l := range lads {
			tb := tables[ti]
			ti++
			if !containsAll(tb.Title, fmt.Sprint(l.kind), a.Display) {
				t.Errorf("table %d title %q missing %q or %q", ti-1, tb.Title, l.kind, a.Display)
			}
			if tb.XHeader != "nodes" {
				t.Errorf("table %d XHeader %q, want nodes", ti-1, tb.XHeader)
			}
			if len(tb.XLabels) != len(l.quick) {
				t.Fatalf("table %d: %d rows, want %d", ti-1, len(tb.XLabels), len(l.quick))
			}
			if len(tb.Series) != len(designs) {
				t.Fatalf("table %d: %d series, want %d", ti-1, len(tb.Series), len(designs))
			}
			for si, s := range tb.Series {
				if s.Name != string(designs[si]) {
					t.Errorf("table %d series %d named %q, want %q", ti-1, si, s.Name, designs[si])
				}
				for i, v := range s.Values {
					if v <= 0 {
						t.Errorf("table %d %s row %s: non-positive latency %v", ti-1, s.Name, tb.XLabels[i], v)
					}
				}
				// More nodes never makes the collective faster: the ladders
				// hold the per-rank block fixed while the fabric widens.
				for i := 1; i < len(s.Values); i++ {
					if s.Values[i] <= s.Values[i-1] {
						t.Errorf("table %d (%s, %s): latency not increasing with nodes: %v",
							ti-1, tb.Title, s.Name, s.Values)
					}
				}
			}
		}
	}
}

// TestHierLeaderWinsQuick pins the headline of the extension on the
// cheapest cells: for the incast-shaped kinds, the two-level leader
// design must beat the flat world-spanning algorithm already at 256
// nodes, on every architecture. (Reduce is deliberately absent: the
// node-major flat binomial is implicitly hierarchical and legitimately
// competitive — see the x11 ladder note.)
func TestHierLeaderWinsQuick(t *testing.T) {
	skipIfRaceExpensive(t, "x11")
	for _, kind := range []core.Kind{core.KindGather, core.KindScatter, core.KindAllgather} {
		flat := clusterCell(arch.KNL(), kind, cluster.DesignFlat, "", 256, 4, 1024, 0)
		leader := clusterCell(arch.KNL(), kind, cluster.DesignLeader, "", 256, 4, 1024, 0)
		if leader >= flat {
			t.Errorf("%s at 256 nodes: leader %.1f us, flat %.1f us; two-level should win", kind, leader, flat)
		}
	}
}

// TestScale4096Nodes is the ISSUE's acceptance cell: a 4096-node,
// 32768-rank leader bcast over the contention-aware fabric must
// complete on one host within bounded wall time and under the default
// Go heap. The bounds mirror TestScale64kBcast: the fabric keeps its
// per-flow queues lazily allocated and world-rank-keyed, so a 4096-node
// run must not materialize O(world²) channel buffers.
func TestScale4096Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-node cell takes tens of seconds; run without -short")
	}
	skipIfRaceExpensive(t, "x11")
	start := time.Now()
	lat := clusterCell(arch.KNL(), core.KindBcast, cluster.DesignLeader, "", 4096, 8, 16<<10, 0)
	wall := time.Since(start)
	if lat <= 0 {
		t.Fatalf("4096-node bcast latency %v, want > 0", lat)
	}
	if wall > 2*time.Minute {
		t.Errorf("4096-node bcast took %v wall; the fabric hot path regressed", wall)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 4<<30 {
		t.Errorf("4096-node bcast left %d bytes live on the heap; lazy queue allocation regressed", ms.HeapAlloc)
	}
	t.Logf("4096-node leader bcast: %.1f us simulated, %v wall, %d MiB live heap",
		lat, wall.Round(time.Millisecond), ms.HeapAlloc>>20)
}
