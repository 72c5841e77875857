package bench

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/measure"
)

// TestScaleQuickShape runs the quick x10 matrix and checks the table
// layout the store hook depends on: one table per (arch, collective),
// arch display and collective word in the title, ranks down the side.
func TestScaleQuickShape(t *testing.T) {
	skipIfRaceExpensive(t, "x10")
	tables := tablesOf(t, "x10", quick)
	lads := scaleLadders()
	archs := arch.All()
	if want := len(archs) * len(lads); len(tables) != want {
		t.Fatalf("x10 quick: %d tables, want %d", len(tables), want)
	}
	ti := 0
	for _, a := range archs {
		for _, l := range lads {
			tb := tables[ti]
			ti++
			if !containsAll(tb.Title, l.word, a.Display) {
				t.Errorf("table %d title %q missing %q or %q", ti-1, tb.Title, l.word, a.Display)
			}
			if tb.XHeader != "ranks" {
				t.Errorf("table %d XHeader %q, want ranks", ti-1, tb.XHeader)
			}
			if len(tb.XLabels) != len(l.quick) {
				t.Fatalf("table %d: %d rows, want %d", ti-1, len(tb.XLabels), len(l.quick))
			}
			for i, v := range tb.Series[0].Values {
				if v <= 0 {
					t.Errorf("table %d row %s: non-positive latency %v", ti-1, tb.XLabels[i], v)
				}
			}
			// More ranks never makes the collective faster: every ladder
			// holds the per-rank block size fixed while the tree deepens.
			vals := tb.Series[0].Values
			for i := 1; i < len(vals); i++ {
				if vals[i] <= vals[i-1] {
					t.Errorf("table %d (%s): latency not increasing with ranks: %v", ti-1, tb.Title, vals)
				}
			}
		}
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

// TestScale64kBcast is the ISSUE's acceptance cell: a 65536-rank bcast
// must complete on one host under the default Go heap. Before the
// sparse page-table backing this cell alone would have asked for 64Ki
// eager address spaces, and before the bulk address-exchange path its
// O(p²) control events made it hours of wall time.
func TestScale64kBcast(t *testing.T) {
	if testing.Short() {
		t.Skip("64k-rank cell takes tens of seconds; run without -short")
	}
	skipIfRaceExpensive(t, "x10")
	const ranks = 65536
	// The simulated latency is pinned to the bit: host-side speedups of
	// the simulator or the measurement fence must not move it.
	const want = 60189.91993627485
	start := time.Now()
	lat := measure.Collective(arch.KNL(), core.KindBcast, core.BcastKnomialRead(8), 4096,
		measure.Options{Procs: ranks})
	wall := time.Since(start)
	if lat != want {
		t.Fatalf("64k bcast latency %v, want %v", lat, want)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// The whole point of the sparse backing: 64Ki ranks must not cost
	// 64Ki materialized address spaces. 4 GiB of live heap would mean
	// eager allocation crept back in.
	if ms.HeapAlloc > 4<<30 {
		t.Errorf("64k bcast left %d bytes live on the heap; sparse backing regressed", ms.HeapAlloc)
	}
	t.Logf("64k-rank bcast: %v us simulated, %.2f s wall, %d MiB live heap", lat, wall.Seconds(), ms.HeapAlloc>>20)
}
