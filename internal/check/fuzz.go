package check

import (
	"math/rand"
	"strconv"

	"camc/internal/cluster"
	"camc/internal/core"
)

// GenOptions bounds what the generator draws.
type GenOptions struct {
	// Archs are the profile names to draw from (default all three).
	Archs []string
	// Kinds are the collective kinds to draw from (default all six).
	Kinds []core.Kind
	// Faults enables drawing fault-injection plans.
	Faults bool
	// Kills enables drawing kill plans (implies the recovery harness).
	Kills bool
	// Cluster makes every spec a multi-node one: 2..genMaxNodes nodes with
	// 2..5 ranks per node, a random topology and design, and a world
	// root. Cluster specs draw skew, detector deadlines, kernel-level
	// fault classes, and (with Kills) kill plans that route through the
	// world-level recovery harness.
	Cluster bool
}

const (
	// genMaxProcs caps the communicator size: large enough for every
	// tree/ring shape, small enough to keep a 200-spec corpus in
	// seconds.
	genMaxProcs = 12
	// genMaxNodes caps the node count in Cluster mode.
	genMaxNodes = 6
)

func (o GenOptions) withDefaults() GenOptions {
	if len(o.Archs) == 0 {
		o.Archs = []string{"knl", "broadwell", "power8"}
	}
	if len(o.Kinds) == 0 {
		o.Kinds = core.SpecKinds()
	}
	return o
}

// genSizes is the size ladder the generator draws from; small sizes
// dominate (they exercise eager/shm paths and run fast), with enough
// kernel-assisted sizes to keep the model-conformance and contention
// machinery honest.
var genSizes = []int64{64, 512, 4096, 16384, 65536, 65536, 262144}

// genClusterSizes is the smaller ladder cluster specs draw from: world
// sizes reach 30 ranks and alltoall buffers scale with world², so the
// materialized-payload oracle stays fast and small.
var genClusterSizes = []int64{64, 512, 2048, 8192, 16384}

// Gen derives the i-th spec of a seeded corpus. It is a pure function
// of (seed, i, o): the same arguments always yield the same spec, so a
// corpus is re-enumerable from its seed alone.
func Gen(seed int64, i int, o GenOptions) Spec {
	o = o.withDefaults()
	rng := rand.New(rand.NewSource(seed*1000003 + int64(i)))
	sp := Spec{
		Arch:  o.Archs[rng.Intn(len(o.Archs))],
		Kind:  o.Kinds[rng.Intn(len(o.Kinds))],
		Count: genSizes[rng.Intn(len(genSizes))],
		Procs: 2 + rng.Intn(genMaxProcs-1),
		Seed:  rng.Int63n(1 << 31),
	}
	sp.Root = rng.Intn(sp.Procs)
	if o.Cluster {
		sp.Count = genClusterSizes[rng.Intn(len(genClusterSizes))]
		sp.Nodes = 2 + rng.Intn(genMaxNodes-1)
		sp.Procs = 2 + rng.Intn(4) // PPN 2..5
		sp.Root = rng.Intn(sp.Nodes * sp.Procs)
		names := cluster.TopoNames()
		sp.Topo = names[rng.Intn(len(names))]
		designs := cluster.Designs()
		sp.Design = string(designs[rng.Intn(len(designs))])
	}

	// Draw a family, optionally with an explicit parameter, then clamp
	// it through Replan so the spec is valid for the drawn communicator
	// size (a non-coprime ring stride or an over-wide throttle would be
	// a generator bug, not a finding).
	infos := core.Specs(sp.Kind)
	info := infos[rng.Intn(len(infos))]
	spec := info.Name
	if info.Default > 0 && rng.Intn(2) == 0 {
		spec += ":" + strconv.Itoa(1+rng.Intn(8))
	}
	al, err := core.Replan(sp.Kind, spec, sp.Procs)
	if err != nil {
		panic("check: generator drew an invalid spec " + spec + ": " + err.Error())
	}
	sp.Algo = al.Name

	if o.Cluster {
		if rng.Intn(10) < 3 {
			sp.Skew = float64(1+rng.Intn(40)) / 2 // 0.5 .. 20 us
		}
		switch rng.Intn(10) {
		case 0, 1, 2:
			if o.Kills {
				sp.Faults = "kill=0.4,killop=3,seed=" + strconv.Itoa(1+rng.Intn(1000))
				sp.Deadline = 2000
			}
		case 3:
			if o.Faults {
				sp.Faults = "partial=0.4,eagain=0.5,seed=" + strconv.Itoa(1+rng.Intn(1000))
			}
		case 4:
			sp.Deadline = 5000 // healthy run with the detector armed
		}
		return sp
	}
	if rng.Intn(10) < 3 {
		sp.Skew = float64(1+rng.Intn(40)) / 2 // 0.5 .. 20 us
	}
	if o.Faults {
		switch rng.Intn(10) {
		case 0, 1:
			sp.Faults = []string{"light", "moderate", "heavy"}[rng.Intn(3)] +
				",seed=" + strconv.Itoa(1+rng.Intn(1000))
		case 2:
			sp.Faults = "partial=0.4,eagain=0.5,seed=" + strconv.Itoa(1+rng.Intn(1000))
		case 3:
			if o.Kills {
				sp.Faults = "kill=0.4,killop=3,seed=" + strconv.Itoa(1+rng.Intn(1000))
				sp.Deadline = 2000
			}
		}
	}
	// Co-tenant ambient pressure, drawn LAST: appending to the RNG
	// stream keeps every earlier field of every existing (seed, i) spec
	// byte-identical, so the long-standing seeded corpora (and their CI
	// summary counts) survive the grammar extension.
	if rng.Intn(10) < 2 {
		sp.Ambient = []int{2, 8, 32}[rng.Intn(3)]
	}
	return sp
}

// Shrink greedily minimizes a failing spec: each step proposes a
// strictly simpler candidate (smaller payload, fewer ranks, root 0, no
// skew, no ambient, no faults) and keeps it only if the failure
// reproduces, looping
// to a fixpoint. failing must be a deterministic predicate — RunOne
// wrapped in an error check is the intended one.
func Shrink(sp Spec, failing func(Spec) bool) Spec {
	try := func(cand Spec) bool {
		if cand.Validate() != nil {
			return false
		}
		return failing(cand)
	}
	for changed := true; changed; {
		changed = false
		// Halve the payload.
		for sp.Count > 1 {
			cand := sp
			cand.Count /= 2
			if !try(cand) {
				break
			}
			sp = cand
			changed = true
		}
		// Shrink the communicator, re-clamping the algorithm parameter
		// for the smaller size.
		for sp.Procs > 2 {
			cand := sp
			cand.Procs--
			if cand.Root >= cand.Procs && cand.Nodes == 0 {
				cand.Root = 0
			}
			if cand.Nodes > 0 && cand.Root >= cand.Nodes*cand.Procs {
				cand.Root = 0
			}
			if al, err := core.Replan(cand.Kind, cand.Algo, cand.Procs); err == nil {
				cand.Algo = al.Name
			}
			if !try(cand) {
				break
			}
			sp = cand
			changed = true
		}
		// Shrink the node count of a cluster spec.
		for sp.Nodes > 2 {
			cand := sp
			cand.Nodes--
			if cand.Root >= cand.Nodes*cand.Procs {
				cand.Root = 0
			}
			if !try(cand) {
				break
			}
			sp = cand
			changed = true
		}
		for _, mutate := range []func(*Spec){
			func(c *Spec) { c.Root = 0 },
			func(c *Spec) { c.Skew = 0 },
			func(c *Spec) { c.Ambient = 0 },
			func(c *Spec) { c.Faults = "" },
			func(c *Spec) { c.Faults, c.Deadline = "", 0 },
			func(c *Spec) { c.Seed = 0 },
			// Cluster simplifications: the canonical design and topology
			// first, then the single-node version of the same collective.
			func(c *Spec) {
				if c.Nodes > 0 {
					c.Design = string(cluster.DesignLeader)
				}
			},
			func(c *Spec) {
				if c.Nodes > 0 {
					c.Topo = "fattree"
				}
			},
			func(c *Spec) {
				if c.Nodes > 0 {
					c.Nodes, c.Topo, c.Design = 0, "", ""
					if c.Root >= c.Procs {
						c.Root = 0
					}
				}
			},
		} {
			cand := sp
			mutate(&cand)
			if cand != sp && try(cand) {
				sp = cand
				changed = true
			}
		}
	}
	return sp
}
