package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"camc/internal/arch"
	"camc/internal/kernel"
	"camc/internal/mpi"
	"camc/internal/trace"
)

// The hand-coded dispatchers the tier table replaced, kept verbatim as
// the reference the table is pinned against.

func refThrottle(a *arch.Profile) int {
	switch a.Name {
	case "knl":
		return 8
	case "broadwell":
		return 4
	case "power8":
		return 10
	}
	panic("no reference throttle for " + a.Name)
}

func refCMAThreshold(kind Kind) int64 {
	switch kind {
	case KindGather, KindScatter:
		return 4 << 10
	default:
		return 16 << 10
	}
}

func refScatter(r *mpi.Rank, a Args) {
	if a.Count < refCMAThreshold(KindScatter) {
		ScatterBinomial(TransportShm)(r, a)
		return
	}
	ScatterThrottled(refThrottle(r.Comm.Node.Arch))(r, a)
}

func refGather(r *mpi.Rank, a Args) {
	if a.Count < refCMAThreshold(KindGather) {
		GatherBinomial(TransportShm)(r, a)
		return
	}
	GatherThrottled(refThrottle(r.Comm.Node.Arch))(r, a)
}

func refBcast(r *mpi.Rank, a Args) {
	prof := r.Comm.Node.Arch
	k := refThrottle(prof)
	switch prof.Name {
	case "broadwell":
		switch {
		case a.Count < 32<<10:
			BcastBinomial(TransportShm)(r, a)
		case a.Count < 2<<20:
			BcastVanDeGeijn(TransportPt2pt)(r, a)
		default:
			BcastScatterAllgather(r, a)
		}
	case "power8":
		if a.Count < 32<<10 {
			BcastBinomial(TransportShm)(r, a)
			return
		}
		BcastKnomialRead(k+1)(r, a)
	default: // knl
		if a.Count < refCMAThreshold(KindBcast) {
			BcastBinomial(TransportShm)(r, a)
			return
		}
		if a.Count < 1<<20 {
			BcastKnomialRead(k+1)(r, a)
			return
		}
		BcastScatterAllgather(r, a)
	}
}

func refAllgather(r *mpi.Rank, a Args) {
	if a.Count < refCMAThreshold(KindAllgather) {
		AllgatherBruck(r, a)
		return
	}
	if r.Comm.Node.Arch.Sockets > 1 {
		AllgatherRingNeighbor(1)(r, a)
		return
	}
	AllgatherRingSourceRead(r, a)
}

func refAlltoall(r *mpi.Rank, a Args) {
	if a.Count < 1<<10 {
		AlltoallPairwiseShm(r, a)
		return
	}
	AlltoallPairwiseColl(r, a)
}

func refReduce(r *mpi.Rank, a Args) {
	if a.Count < refCMAThreshold(KindGather) {
		ReduceBinomialPt2pt(TransportShm)(r, a)
		return
	}
	ReduceKnomial(2)(r, a)
}

var refTuned = map[Kind]func(*mpi.Rank, Args){
	KindScatter:   refScatter,
	KindGather:    refGather,
	KindBcast:     refBcast,
	KindAllgather: refAllgather,
	KindAlltoall:  refAlltoall,
	KindReduce:    refReduce,
}

// runTracedDataless runs algo once, traced and cost-only, on p ranks and
// returns the virtual completion time and the names of the trace's
// events other than the tuned dispatcher's own span (reduce opens no
// algorithm span, so its instants and kernel events carry the check).
func runTracedDataless(t *testing.T, a *arch.Profile, kind Kind, algo func(*mpi.Rank, Args), p int, count int64) (float64, []string) {
	t.Helper()
	c := mpi.New(mpi.Config{Arch: a, Procs: p})
	rec := trace.NewUnbound()
	c.AttachTrace(rec)
	sendLen, recvLen := count, count
	switch kind {
	case KindScatter:
		sendLen = int64(p) * count
	case KindGather:
		recvLen = int64(p) * count
	case KindAlltoall, KindAllgather:
		sendLen, recvLen = int64(p)*count, int64(p)*count
	}
	send := make([]kernel.Addr, p)
	recv := make([]kernel.Addr, p)
	for i := range send {
		send[i] = c.Rank(i).Alloc(sendLen)
		recv[i] = c.Rank(i).Alloc(recvLen)
	}
	c.Start(func(r *mpi.Rank) {
		algo(r, Args{Send: send[r.ID], Recv: recv[r.ID], Count: count})
	})
	if err := c.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range rec.Events() {
		if e.Kind != trace.KindSpan || !strings.HasSuffix(e.Name, ":tuned") {
			names = append(names, string(e.Cat)+"/"+e.Name)
		}
	}
	return c.Sim.Now(), names
}

// TestTunedMatchesReference pins the tier table against the hand-coded
// dispatchers it replaced: on every architecture and kind, at each tier
// switch point −1, +0 and +1 and at 1 B and 8 MiB, both record the same
// inner algorithm spans and events and finish at bit-identical virtual
// times.
func TestTunedMatchesReference(t *testing.T) {
	for _, a := range arch.All() {
		for _, kind := range SpecKinds() {
			counts := []int64{1, 8 << 20}
			for _, b := range tunedBucketsFor(kind, a) {
				if b.MaxSize != anySize {
					counts = append(counts, b.MaxSize, b.MaxSize+1, b.MaxSize+2)
				}
			}
			for _, count := range counts {
				refLat, refEvents := runTracedDataless(t, a, kind, refTuned[kind], 4, count)
				lat, events := runTracedDataless(t, a, kind, Tuned(kind), 4, count)
				if len(events) == 0 || !slices.Equal(events, refEvents) {
					t.Errorf("%s %s count %d: %d events differ from the reference's %d", a.Name, kind, count, len(events), len(refEvents))
				}
				if math.Float64bits(lat) != math.Float64bits(refLat) {
					t.Errorf("%s %s count %d: latency %v, reference %v", a.Name, kind, count, lat, refLat)
				}
			}
		}
	}
}

func TestTunedPanicsOnUnknownArch(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), `"vax"`) {
			t.Fatalf("panic %v, want one naming the profile", r)
		}
	}()
	a := *arch.KNL()
	a.Name = "vax"
	TunedThrottle(&a)
}

func TestPick(t *testing.T) {
	bs := []Bucket{{MaxSize: 1023}, {MaxSize: 4095}, {MaxSize: 1 << 20}}
	cases := []struct {
		count int64
		want  int
	}{
		{0, 0}, {1, 0}, {1023, 0}, {1024, 1}, {4095, 1}, {4096, 2},
		{1 << 20, 2}, {1<<20 + 1, 2}, {math.MaxInt64, 2},
	}
	for _, tc := range cases {
		if got := Pick(bs, tc.count); got != tc.want {
			t.Errorf("Pick(%d) = %d, want %d", tc.count, got, tc.want)
		}
	}
}
