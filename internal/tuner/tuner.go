// Package tuner implements the collective tuning framework the paper
// plugs its designs into (§VII: "we use the collective tuning framework
// of MVAPICH2 to automatically select either CMA or shared memory based
// designs to provide the best performance for a given message size and
// process count").
//
// Autotune probes every candidate algorithm of a collective at a ladder
// of message sizes on the target architecture and emits a dispatch
// Table: contiguous size buckets, each mapped to the measured winner.
// The result reproduces the paper's hand-tuned selections (throttle 8 on
// KNL, 4 on Broadwell, 10 on Power8; shared memory below the
// kernel-assist threshold; scatter-allgather broadcasts at the top) —
// but derives them from measurements instead of hard-coding them.
package tuner

import (
	"fmt"
	"io"
	"math"
	"sort"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/measure"
	"camc/internal/mpi"
	"camc/internal/par"
)

// Entry maps one message-size bucket to its winning algorithm.
type Entry struct {
	// MaxSize is the bucket's inclusive upper bound in bytes;
	// math.MaxInt64 for the last bucket.
	MaxSize int64
	// Name is the winning algorithm's registry name.
	Name string
	// Latency is the measured latency at Probe (us). When adjacent
	// buckets merge, the widened bucket keeps the *last* merged
	// bucket's measurement, so Latency always belongs to the probe
	// size closest to the bucket's printed upper bound.
	Latency float64
	// Probe is the probe size (bytes) Latency was measured at.
	Probe int64

	run func(*mpi.Rank, core.Args)
}

// Table is a tuned dispatch table for one architecture.
type Table struct {
	Arch    string
	Procs   int
	Entries map[core.Kind][]Entry // per kind, ascending MaxSize
}

// entriesFor returns kind's bucket list, panicking with a clear named
// message for a kind the table does not cover. Both Collective and
// Lookup go through this guard, so an empty kind fails identically on
// either path instead of Lookup's former raw index-out-of-range.
func (t *Table) entriesFor(kind core.Kind) []Entry {
	entries := t.Entries[kind]
	if len(entries) == 0 {
		panic(fmt.Sprintf("tuner: no entries for %s", kind))
	}
	return entries
}

// buckets returns kind's entries as core dispatch buckets.
func (t *Table) buckets(kind core.Kind) []core.Bucket {
	entries := t.entriesFor(kind)
	bs := make([]core.Bucket, len(entries))
	for i, e := range entries {
		bs[i] = core.Bucket{MaxSize: e.MaxSize, Name: e.Name, Run: e.run}
	}
	return bs
}

// Lookup returns the entry covering size.
func (t *Table) Lookup(kind core.Kind, size int64) Entry {
	return t.Entries[kind][core.Pick(t.buckets(kind), size)]
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "tuning table for %s (%d ranks)\n", t.Arch, t.Procs)
	kinds := make([]string, 0, len(t.Entries))
	for k := range t.Entries {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  %s:\n", k)
		lo := int64(0)
		for _, e := range t.Entries[core.Kind(k)] {
			hi := "inf"
			if e.MaxSize != math.MaxInt64 {
				hi = sizeStr(e.MaxSize)
			}
			fmt.Fprintf(w, "    (%s, %s]  ->  %-22s (%.1f us at %s)\n", sizeStr(lo), hi, e.Name, e.Latency, sizeStr(e.Probe))
			lo = e.MaxSize
		}
	}
}

func sizeStr(s int64) string {
	switch {
	case s <= 0:
		return "0"
	case s >= 1<<20 && s%(1<<20) == 0:
		return fmt.Sprintf("%dM", s>>20)
	case s >= 1<<10 && s%(1<<10) == 0:
		return fmt.Sprintf("%dK", s>>10)
	default:
		return fmt.Sprintf("%dB", s)
	}
}

// Config tunes the autotuner itself.
type Config struct {
	// Procs overrides the architecture's default process count.
	Procs int
	// ProbeSizes are the bucket boundaries; defaults to 1K..4M powers of
	// four (1K, 4K, 16K, 64K, 256K, 1M, 4M).
	ProbeSizes []int64
	// Jobs caps the worker goroutines probing (candidate, size) cells
	// (0 = GOMAXPROCS, 1 = sequential). Each probe is an independent
	// deterministic simulation, so the resulting table is identical for
	// any value.
	Jobs int
	// Ambient is the static co-tenant lock pressure every probe runs
	// under (measure.Options.Ambient): the table is then tuned for a
	// machine with that many phantom page-lock holders, which shifts
	// the crossovers away from the contention-prone kernel-assisted
	// designs (x13).
	Ambient int
	// Kinds restricts the table to these collective kinds (default:
	// all six). The tuning service tunes one kind per cache entry, so
	// a plan miss pays for the kind it needs, not the whole matrix.
	Kinds []core.Kind
}

func (c Config) withDefaults(a *arch.Profile) Config {
	if c.Procs == 0 {
		c.Procs = a.DefaultProcs
	}
	if len(c.ProbeSizes) == 0 {
		for s := int64(1 << 10); s <= 4<<20; s <<= 2 {
			c.ProbeSizes = append(c.ProbeSizes, s)
		}
	}
	if len(c.Kinds) == 0 {
		c.Kinds = Kinds()
	}
	return c
}

// Candidates returns the algorithm pool the tuner searches for one
// collective kind on one architecture: the native contention-aware
// designs across a fan-out ladder plus the shared-memory and pt2pt
// classics.
func Candidates(kind core.Kind, a *arch.Profile) []core.Algorithm {
	// Fan-out ladder: powers of two up to half the ranks, plus the
	// architecture's socket size (the Power8 sweet spot k=10 is not a
	// power of two).
	var ks []int
	for k := 2; k <= a.DefaultProcs/2 && k <= 32; k <<= 1 {
		ks = append(ks, k)
	}
	perSocket := a.DefaultProcs / a.Sockets
	if perSocket > 1 && perSocket <= 32 {
		ks = append(ks, perSocket)
	}
	sort.Ints(ks)
	ks = dedupInts(ks)

	switch kind {
	case core.KindScatter:
		algos := core.ScatterAlgorithms(ks...)
		algos = append(algos,
			core.Algorithm{Name: "binomial-shm", Kind: kind, Run: core.ScatterBinomial(core.TransportShm)},
			core.Algorithm{Name: "binomial-pt2pt", Kind: kind, Run: core.ScatterBinomial(core.TransportPt2pt)},
		)
		return algos
	case core.KindGather:
		algos := core.GatherAlgorithms(ks...)
		algos = append(algos,
			core.Algorithm{Name: "binomial-shm", Kind: kind, Run: core.GatherBinomial(core.TransportShm)},
			core.Algorithm{Name: "binomial-pt2pt", Kind: kind, Run: core.GatherBinomial(core.TransportPt2pt)},
		)
		return algos
	case core.KindBcast:
		var kn []int
		for _, k := range ks {
			kn = append(kn, k+1) // fan-out k readers = base k+1
		}
		algos := core.BcastAlgorithms(kn...)
		algos = append(algos,
			core.Algorithm{Name: "binomial-shm", Kind: kind, Run: core.BcastBinomial(core.TransportShm)},
			core.Algorithm{Name: "vandegeijn-shm", Kind: kind, Run: core.BcastVanDeGeijn(core.TransportShm)},
			core.Algorithm{Name: "vandegeijn-pt2pt", Kind: kind, Run: core.BcastVanDeGeijn(core.TransportPt2pt)},
		)
		return algos
	case core.KindAllgather:
		algos := core.AllgatherAlgorithms(1)
		algos = append(algos,
			core.Algorithm{Name: "ring-shm", Kind: kind, Run: core.AllgatherRing(core.TransportShm)},
			core.Algorithm{Name: "ring-pt2pt", Kind: kind, Run: core.AllgatherRing(core.TransportPt2pt)},
		)
		return algos
	case core.KindAlltoall:
		return core.AlltoallAlgorithms()
	case core.KindReduce:
		var kn []int
		for _, k := range ks {
			kn = append(kn, k+1)
		}
		return core.ReduceAlgorithms(kn...)
	}
	panic("tuner: unknown kind " + string(kind))
}

func dedupInts(v []int) []int {
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != v[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// Kinds are the collectives the tuner covers.
func Kinds() []core.Kind {
	return []core.Kind{
		core.KindScatter, core.KindGather, core.KindBcast,
		core.KindAllgather, core.KindAlltoall, core.KindReduce,
	}
}

// Autotune probes every candidate at every probe size and builds the
// winning dispatch table: ProbeWinners' grid, each probe size bounding
// a bucket and adjacent buckets with the same winner merged. Probing is
// exact (the simulator is deterministic), so one invocation per
// (algorithm, size) suffices.
func Autotune(a *arch.Profile, cfg Config) *Table {
	cfg = cfg.withDefaults(a)
	t := &Table{Arch: a.Name, Procs: cfg.Procs, Entries: map[core.Kind][]Entry{}}
	for _, kind := range cfg.Kinds {
		cells := ProbeWinners(a, kind, cfg)
		entries := make([]Entry, len(cells))
		for i, c := range cells {
			entries[i] = Entry{MaxSize: c.Size, Name: c.Name, Latency: c.Latency, Probe: c.Size, run: c.run}
		}
		// The last bucket extends to infinity.
		entries[len(entries)-1].MaxSize = math.MaxInt64
		t.Entries[kind] = mergeAdjacent(entries)
	}
	return t
}

// ProbeCell is one (probe size, winner) pair of a pre-merge tuning
// sweep: the raw grid Autotune buckets from.
type ProbeCell struct {
	Size    int64
	Name    string  // winning algorithm at this probe size
	Latency float64 // the winner's latency (us)

	run func(*mpi.Rank, core.Args)
}

// ProbeWinners measures every candidate of one kind at every probe
// size and returns the per-size winners — the grid Autotune collapses
// into buckets, kept at probe granularity so experiments can show
// exactly where the winning algorithm flips (x13 sweeps this against
// Config.Ambient).
func ProbeWinners(a *arch.Profile, kind core.Kind, cfg Config) []ProbeCell {
	cfg = cfg.withDefaults(a)
	cands := Candidates(kind, a)
	measured := measureKind(a, kind, cands, cfg)
	out := make([]ProbeCell, len(cfg.ProbeSizes))
	for si, size := range cfg.ProbeSizes {
		best := 0
		for ci := range cands {
			if measured[ci][si] < measured[best][si] {
				best = ci
			}
		}
		out[si] = ProbeCell{Size: size, Name: cands[best].Name, Latency: measured[best][si], run: cands[best].Run}
	}
	return out
}

// measureKind returns latencies[candidate][probeSize], probing the
// (candidate, size) grid on a worker pool.
func measureKind(a *arch.Profile, kind core.Kind, cands []core.Algorithm, cfg Config) [][]float64 {
	out := make([][]float64, len(cands))
	for ci := range cands {
		out[ci] = make([]float64, len(cfg.ProbeSizes))
	}
	par.Do(par.Workers(cfg.Jobs), len(cands)*len(cfg.ProbeSizes), func(i int) {
		ci, si := i/len(cfg.ProbeSizes), i%len(cfg.ProbeSizes)
		out[ci][si] = measure.Collective(a, kind, cands[ci].Run, cfg.ProbeSizes[si], measure.Options{Procs: cfg.Procs, Ambient: cfg.Ambient})
	})
	return out
}

// mergeAdjacent collapses neighbouring buckets won by the same
// algorithm. The widened bucket takes the *last* merged bucket's
// measurement (Latency and Probe): keeping the first one, as this
// function originally did, made Fprint label a merged (0, 4M] bucket
// with the 1K-probe latency — a number from the opposite end of the
// bucket it annotates.
func mergeAdjacent(entries []Entry) []Entry {
	var out []Entry
	for _, e := range entries {
		if n := len(out); n > 0 && out[n-1].Name == e.Name {
			out[n-1].MaxSize = e.MaxSize
			out[n-1].Latency = e.Latency
			out[n-1].Probe = e.Probe
			continue
		}
		out = append(out, e)
	}
	return out
}
