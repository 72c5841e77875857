package shm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"camc/internal/arch"
	"camc/internal/kernel"
	"camc/internal/sim"
)

// agRun is one Allgather64 on p ranks: each rank's exit instant, and one
// log of every rank's return (r) and of its resumptions (−1−r) after one
// further yield at its exit instant and after each sleep to a later
// instant of wakes — the resumptions catch a rank that returned early
// and ran on ahead of ranks still queued at the same instant, and events
// scheduled after an exit that land on the instant another rank leaves
// at.
type agRun struct {
	exits []float64
	log   []int
}

// runAllgather runs calls Allgather64s back to back on tr's ranks,
// spawned in spawn order, rank r entering the first at entry[r] (ranks
// entering at one instant arrive in spawn order): the message exchange
// or its closed form. After its last exit each rank yields, then sleeps
// to each instant of wakes after its exit in turn. Every rank's vectors
// are checked. The transport's queues are empty afterwards, so one
// transport serves both runs.
func runAllgather(t *testing.T, s *sim.Simulation, tr *Transport, entry []float64, spawn []int, calls int, wakes []float64, closed bool) agRun {
	t.Helper()
	p := tr.nranks
	out := agRun{exits: make([]float64, p)}
	bad := ""
	for _, i := range spawn {
		i := i
		s.Spawn("rank", func(sp *sim.Proc) {
			sp.Sleep(entry[i])
			for c := 0; c < calls; c++ {
				val := int64(3*i + 1 + 1000*c)
				var v []int64
				if closed {
					v = tr.allgatherClosed(sp, i, val)
				} else {
					v = tr.allgatherExchange(sp, i, val)
				}
				for j, x := range v {
					if x != int64(3*j+1+1000*c) && bad == "" {
						bad = fmt.Sprintf("p=%d closed=%v call %d: rank %d got %d at %d", p, closed, c, i, x, j)
					}
				}
				out.log = append(out.log, i)
			}
			out.exits[i] = sp.Now()
			sp.Yield()
			out.log = append(out.log, -1-i)
			for _, w := range wakes {
				if w > sp.Now() {
					sp.Sleep(w - sp.Now())
					out.log = append(out.log, -1-i)
				}
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if bad != "" {
		t.Fatal(bad)
	}
	return out
}

// agEntries returns the entry patterns the differential test runs at p
// ranks: all equal, skewed, skewed with ties (a few shared instants,
// ranks arriving at each in a shuffled order), and entries on the
// exchange's own ctlCost grid, and entries whose posts land, one rank in
// two, on the very instant the root asks for them (then whether the
// post is queued or wakes the root depends on which event ran first).
func agEntries(p int, lat float64) (names []string, entries [][]float64, spawns [][]int) {
	rng := rand.New(rand.NewSource(int64(p)))
	ident := make([]int, p)
	for i := range ident {
		ident[i] = i
	}
	var ents [][]float64
	ents = append(ents, make([]float64, p))
	skew := make([]float64, p)
	for i := range skew {
		skew[i] = rng.Float64() * 10
	}
	ents = append(ents, skew)
	levels := []float64{0, rng.Float64() * 3, 3 + rng.Float64()*3}
	tied := make([]float64, p)
	for i := range tied {
		tied[i] = levels[rng.Intn(len(levels))]
	}
	ents = append(ents, tied)
	grid := make([]float64, p)
	for i := range grid {
		grid[i] = float64(rng.Intn(2*p)) * ctlCost
	}
	ents = append(ents, grid)
	// Follow the root's gather (Gather64's arithmetic) to place each
	// post on the instant the root reaches it.
	onTime := make([]float64, p)
	now := 1.0
	onTime[0] = now
	for r := 1; r < p; r++ {
		if e := now - ctlCost; e+ctlCost == now && r%2 == 1 {
			onTime[r] = e
		} else {
			onTime[r] = rng.Float64() * now
		}
		post := onTime[r] + ctlCost
		now = max(now, post)
		if ready := post + lat; ready > now {
			now += ready - now
		}
		now += ctlCost
	}
	ents = append(ents, onTime)
	shuffled := append([]int(nil), ident...)
	rng.Shuffle(p, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	return []string{"equal", "skewed", "tied", "grid", "on-time"}, ents, [][]int{ident, ident, shuffled, shuffled, shuffled}
}

// TestAllgatherClosedMatchesExchange is the closed form's differential
// test: for every rank count through 64 and around 160 and the powers of
// two up to 1024 (across denseQueueLimit and ctlVecThreshold), and 1100,
// on all three architectures, under every entry pattern of agEntries,
// every rank must leave the closed form at the instant the message
// exchange gives it, bit for bit, and the log of returns and of
// resumptions after them must match the exchange's, where ranks that
// left early wake at every later exit instant.
func TestAllgatherClosedMatchesExchange(t *testing.T) {
	var counts []int
	for p := 1; p <= 64; p++ {
		counts = append(counts, p)
	}
	counts = append(counts, 159, 160, 161, 255, 256, 257, 511, 512, 513, 1023, 1024, 1025, 1100)
	if testing.Short() || raceDetectorOn {
		counts = []int{1, 2, 3, 5, 8, 13, 31, 32, 33, 64, 160, 257, 513, 1025}
	}
	for _, a := range []*arch.Profile{arch.KNL(), arch.Broadwell(), arch.Power8()} {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			s := sim.New()
			for _, p := range counts {
				tr := New(kernel.NewNode(s, a), p)
				names, entries, spawns := agEntries(p, a.ShmLatency)
				for k, name := range names {
					// A first closed-form run finds the exit instants;
					// then ranks that left early wake at every later one.
					// Skewed ranks also run two calls back to back: the
					// first to leave enter the second while the rest
					// still wait to leave the first.
					calls := 1
					if name == "skewed" {
						calls = 2
					}
					wakes := runAllgather(t, s, tr, entries[k], spawns[k], calls, nil, true).exits
					slices.Sort(wakes)
					wakes = slices.Compact(wakes)
					ref := runAllgather(t, s, tr, entries[k], spawns[k], calls, wakes, false)
					got := runAllgather(t, s, tr, entries[k], spawns[k], calls, wakes, true)
					agCompare(t, p, name, ref, got)
				}
			}
		})
	}
}

// agCompare fails unless the closed-form run matches the exchange bit
// for bit: exit instants and the log of returns and resumptions.
func agCompare(t *testing.T, p int, name string, ref, got agRun) {
	t.Helper()
	for i := range ref.exits {
		if math.Float64bits(ref.exits[i]) != math.Float64bits(got.exits[i]) {
			t.Fatalf("p=%d %s: rank %d leaves the exchange at %v, the closed form at %v",
				p, name, i, ref.exits[i], got.exits[i])
		}
	}
	if !slices.Equal(ref.log, got.log) {
		t.Fatalf("p=%d %s: exchange runs ranks in order %v, closed form %v", p, name, ref.log, got.log)
	}
}

// BenchmarkAllgather64 times one exchange on power8's full node (160
// ranks), all entering at t=0, as messages and in closed form.
func BenchmarkAllgather64(b *testing.B) {
	for _, closed := range []bool{false, true} {
		b.Run(fmt.Sprintf("closed=%v", closed), func(b *testing.B) {
			const p = 160
			s := sim.New()
			tr := New(kernel.NewNode(s, arch.Power8()), p)
			for n := 0; n < b.N; n++ {
				for i := 0; i < p; i++ {
					i := i
					s.Spawn("rank", func(sp *sim.Proc) {
						if closed {
							tr.allgatherClosed(sp, i, int64(i))
						} else {
							tr.allgatherExchange(sp, i, int64(i))
						}
					})
				}
				if err := s.Run(); err != nil {
					b.Fatal(err)
				}
				s.Reset()
			}
		})
	}
}
