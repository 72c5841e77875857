package core

import (
	"fmt"
	"math"

	"camc/internal/arch"
	"camc/internal/mpi"
)

// tier is one size tier of the proposed design.
type tier struct {
	max  int64 // inclusive upper bound on Args.Count
	spec string
}

// anySize bounds a kind's last tier.
const anySize = math.MaxInt64

// Tuning (§VII): the proposed design selects the best CMA algorithm — or
// falls back to shared memory where kernel assistance does not pay — per
// architecture, collective, and message size, mirroring the MVAPICH2
// collective tuning framework the paper plugs into.
//
// tunedTiers encodes the paper's published winners as data: per
// architecture and kind, ascending size tiers, each naming a registered
// spec of the shared grammar (spec.go). A tier covers counts up to and
// including its bound, so a bound of 4<<10 − 1 switches at 4 KiB.
//
//   - Scatter/Gather: throttled with k=8 (KNL), k=4 (Broadwell), k=10
//     (Power8, avoiding inter-socket lock contention); shared-memory
//     binomial below the kernel-assist threshold (4 KiB; Gather benefits
//     from CMA early, §VII-C).
//   - Bcast: k-nomial reads at medium sizes (fan-out matching the
//     throttle sweet spot, so radix k+1), scatter-allgather at large; on
//     Broadwell the shared-memory Van de Geijn design keeps winning until
//     ~2 MB because shm bcast needs p copies vs p−1 for CMA, and CMA adds
//     contention (§VII-F); on Power8 the k-nomial reads win from 32 KiB
//     up on the machine's high aggregate throughput.
//   - Allgather: Bruck for small messages (log p steps), then the
//     socket-aware ring — direct source reads on single-socket KNL (no
//     per-step synchronization), the neighbor ring on the two-socket
//     machines, where most of its traffic stays intra-socket while source
//     reads cross the interconnect for half of theirs (the paper's "intra-
//     and inter-socket awareness", §VII-E).
//   - Alltoall: native pairwise CMA from 1 KiB, two-copy pairwise below.
//   - Reduce (the paper's future work): the shared-memory binomial below
//     4 KiB, the binary CMA tree above. Unlike Scatter/Bcast, a *deep*
//     tree wins here: a reduce parent serializes its children's
//     read+combine steps, so wide fan-ins add serial work without adding
//     useful concurrency — the autotuner (internal/tuner) discovers the
//     same thing.
var tunedTiers = map[string]map[Kind][]tier{
	"knl": {
		KindScatter:   {{4<<10 - 1, "binomial-shm"}, {anySize, "throttled:8"}},
		KindGather:    {{4<<10 - 1, "binomial-shm"}, {anySize, "throttled:8"}},
		KindBcast:     {{16<<10 - 1, "binomial-shm"}, {1<<20 - 1, "knomial-read:9"}, {anySize, "scatter-allgather"}},
		KindAllgather: {{16<<10 - 1, "bruck"}, {anySize, "ring-source-read"}},
		KindAlltoall:  {{1<<10 - 1, "pairwise-shmem"}, {anySize, "pairwise-cma-coll"}},
		KindReduce:    {{4<<10 - 1, "binomial-shm"}, {anySize, "knomial:2"}},
	},
	"broadwell": {
		KindScatter:   {{4<<10 - 1, "binomial-shm"}, {anySize, "throttled:4"}},
		KindGather:    {{4<<10 - 1, "binomial-shm"}, {anySize, "throttled:4"}},
		KindBcast:     {{32<<10 - 1, "binomial-shm"}, {2<<20 - 1, "vandegeijn-pt2pt"}, {anySize, "scatter-allgather"}},
		KindAllgather: {{16<<10 - 1, "bruck"}, {anySize, "ring-neighbor:1"}},
		KindAlltoall:  {{1<<10 - 1, "pairwise-shmem"}, {anySize, "pairwise-cma-coll"}},
		KindReduce:    {{4<<10 - 1, "binomial-shm"}, {anySize, "knomial:2"}},
	},
	"power8": {
		KindScatter:   {{4<<10 - 1, "binomial-shm"}, {anySize, "throttled:10"}},
		KindGather:    {{4<<10 - 1, "binomial-shm"}, {anySize, "throttled:10"}},
		KindBcast:     {{32<<10 - 1, "binomial-shm"}, {anySize, "knomial-read:11"}},
		KindAllgather: {{16<<10 - 1, "bruck"}, {anySize, "ring-neighbor:1"}},
		KindAlltoall:  {{1<<10 - 1, "pairwise-shmem"}, {anySize, "pairwise-cma-coll"}},
		KindReduce:    {{4<<10 - 1, "binomial-shm"}, {anySize, "knomial:2"}},
	},
}

// Bucket is one message-size tier of a dispatch table: counts up to and
// including MaxSize run Run. The proposed design's tier table and the
// autotuner's measured tables both dispatch through Pick.
type Bucket struct {
	MaxSize int64
	Name    string
	Run     func(*mpi.Rank, Args)
}

// Pick returns the index of the bucket covering count: the first whose
// MaxSize is at least count, or the last bucket for any larger count.
// buckets must be non-empty and ascending in MaxSize.
func Pick(buckets []Bucket, count int64) int {
	for i := range buckets {
		if count <= buckets[i].MaxSize {
			return i
		}
	}
	return len(buckets) - 1
}

// tunedBuckets holds the resolved tier table (per kind, per architecture
// name) and tunedRuns the prebuilt Tuned closures; init fills both.
// They cannot be var initializers: the "tuned" specs of spec.go call
// Tuned, so resolving the table through LookupAlgorithm during variable
// initialization would be a cycle.
var (
	tunedBuckets = map[Kind]map[string][]Bucket{}
	tunedRuns    = map[Kind]func(*mpi.Rank, Args){}
)

func init() {
	for _, kind := range specKindOrder {
		byArch := map[string][]Bucket{}
		for archName, kinds := range tunedTiers {
			bs := make([]Bucket, len(kinds[kind]))
			for i, t := range kinds[kind] {
				al, err := LookupAlgorithm(kind, t.spec)
				if err != nil {
					panic(err)
				}
				bs[i] = Bucket{MaxSize: t.max, Name: t.spec, Run: al.Run}
			}
			byArch[archName] = bs
		}
		tunedBuckets[kind] = byArch
		span := string(kind) + ":tuned"
		tunedRuns[kind] = func(r *mpi.Rank, a Args) {
			rec, id := beginColl(r, span, a)
			defer rec.End(id)
			bs := tunedBucketsFor(kind, r.Comm.Node.Arch)
			bs[Pick(bs, a.Count)].Run(r, a)
		}
	}
}

// tunedBucketsFor returns kind's resolved tiers on an architecture,
// panicking with the profile's name when the table does not cover it.
func tunedBucketsFor(kind Kind, a *arch.Profile) []Bucket {
	bs, ok := tunedBuckets[kind][a.Name]
	if !ok {
		panic(fmt.Sprintf("core: no tuned tiers for architecture %q", a.Name))
	}
	return bs
}

// Tuned returns the proposed ("CMA-coll tuned") implementation of a
// collective kind: each call opens the "<kind>:tuned" span and runs the
// tier of the rank's architecture covering Args.Count.
func Tuned(kind Kind) func(r *mpi.Rank, a Args) {
	run, ok := tunedRuns[kind]
	if !ok {
		panic("core: unknown collective kind " + string(kind))
	}
	return run
}

// TunedThrottle returns the contention sweet-spot fan-out for an
// architecture (the k in throttled reads/writes and k-nomial trees): the
// parameter of the scatter table's kernel-assisted top tier.
func TunedThrottle(a *arch.Profile) int {
	bs := tunedBucketsFor(KindScatter, a)
	_, k, err := ResolveSpec(KindScatter, bs[len(bs)-1].Name)
	if err != nil {
		panic(err)
	}
	return k
}
