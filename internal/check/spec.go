// Package check is the correctness-tooling layer of the repo: a
// deliberately naive reference executor used as a differential oracle
// for every collective kind, an invariant registry run over traced
// executions (clock monotonicity, span nesting, mm-lock balance, γ(c)
// sanity, fault-accounting conservation, model-conformance bounds), and
// a deterministic seeded fuzzer with a shrinker that reduces any
// failure to a minimal one-line reproducer spec.
//
// The reproducer grammar is a space-separated key=value line, e.g.
//
//	arch=knl kind=scatter algo=throttled:4 size=65536 procs=8 root=3 seed=17
//
// accepted by ParseSpec and by the -repro flag of camc-fuzz, camc-bench
// and camc-trace, so any failure the fuzzer finds replays byte-for-byte
// in the tracing and benchmarking tools.
package check

import (
	"fmt"
	"strconv"
	"strings"

	"camc/internal/arch"
	"camc/internal/cluster"
	"camc/internal/core"
	"camc/internal/fault"
	"camc/internal/liveness"
)

// Spec is one fully-determined check case: everything RunOne needs to
// reproduce a run bit-for-bit.
type Spec struct {
	Arch  string    // architecture profile name (arch.ByName)
	Kind  core.Kind // collective kind
	Algo  string    // algorithm spec (core.LookupAlgorithm grammar)
	Count int64     // bytes per rank block (the "size=" field)
	Procs int       // communicator size
	Root  int       // root rank for rooted collectives
	Seed  int64     // payload/skew RNG seed
	Skew  float64   // max per-rank start skew in simulated us (0 = none)

	// Ambient is the static co-tenant lock pressure (phantom page-lock
	// holders added to every γ(c) sample, mpi.Config.Ambient). It is
	// single-node machinery — rejected on cluster specs.
	Ambient int

	// Faults is a fault-plan spec for fault.Parse ("" = fault-free).
	// A plan with the kill class routes the run through the recovery
	// harness (detect, agree, shrink, replan, verified re-run).
	Faults string

	// Deadline is the liveness detector deadline in simulated us used
	// by the recovery path; 0 picks liveness.Defaults().
	Deadline float64

	// Nodes > 0 selects the multi-node fabric path: Procs becomes the
	// per-node rank count (PPN), Root a world rank, and the run executes
	// a cluster collective instead of a single-node one. Fault plans,
	// skew and deadlines are single-node machinery and are rejected on
	// cluster specs.
	Nodes int
	// Topo is the fabric topology name (cluster.TopoNames); only valid
	// with Nodes > 0, where "" defaults to fattree at parse time.
	Topo string
	// Design is the cluster collective design (cluster.Designs); only
	// valid with Nodes > 0, where "" defaults to leader at parse time.
	Design string
}

// String renders the spec as the canonical one-line reproducer.
func (s Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "arch=%s kind=%s algo=%s size=%d procs=%d root=%d seed=%d",
		s.Arch, s.Kind, s.Algo, s.Count, s.Procs, s.Root, s.Seed)
	if s.Skew != 0 {
		fmt.Fprintf(&b, " skew=%s", strconv.FormatFloat(s.Skew, 'g', -1, 64))
	}
	if s.Ambient != 0 {
		fmt.Fprintf(&b, " ambient=%d", s.Ambient)
	}
	if s.Faults != "" {
		fmt.Fprintf(&b, " faults=%s", s.Faults)
	}
	if s.Deadline != 0 {
		fmt.Fprintf(&b, " deadline=%s", strconv.FormatFloat(s.Deadline, 'g', -1, 64))
	}
	if s.Nodes > 0 {
		fmt.Fprintf(&b, " nodes=%d topo=%s design=%s", s.Nodes, s.Topo, s.Design)
	}
	return b.String()
}

// ParseSpec parses a reproducer line (see String) and validates every
// field, so a pasted repro fails loudly rather than running something
// other than what the fuzzer reported.
func ParseSpec(line string) (Spec, error) {
	sp := Spec{}
	seen := map[string]bool{}
	for _, tok := range strings.Fields(line) {
		i := strings.IndexByte(tok, '=')
		if i <= 0 {
			return Spec{}, fmt.Errorf("check: bad token %q (want key=value)", tok)
		}
		key, val := tok[:i], tok[i+1:]
		if seen[key] {
			return Spec{}, fmt.Errorf("check: duplicate key %q", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "arch":
			sp.Arch = val
		case "kind":
			sp.Kind = core.Kind(val)
		case "algo":
			sp.Algo = val
		case "size":
			sp.Count, err = parseSize(val)
		case "procs":
			sp.Procs, err = strconv.Atoi(val)
		case "root":
			sp.Root, err = strconv.Atoi(val)
		case "seed":
			sp.Seed, err = strconv.ParseInt(val, 10, 64)
		case "skew":
			sp.Skew, err = strconv.ParseFloat(val, 64)
		case "ambient":
			sp.Ambient, err = strconv.Atoi(val)
		case "faults":
			sp.Faults = val
		case "deadline":
			sp.Deadline, err = strconv.ParseFloat(val, 64)
		case "nodes":
			sp.Nodes, err = strconv.Atoi(val)
		case "topo":
			sp.Topo = val
		case "design":
			sp.Design = val
		default:
			return Spec{}, fmt.Errorf("check: unknown key %q", key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("check: bad %s value %q: %v", key, val, err)
		}
	}
	if sp.Nodes > 0 {
		if sp.Topo == "" {
			sp.Topo = "fattree"
		}
		if sp.Design == "" {
			sp.Design = string(cluster.DesignLeader)
		}
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// parseSize parses a byte count with an optional K/M suffix
// (1024-based), matching the camc-trace -size flag.
func parseSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	return v * mult, nil
}

// Validate checks cross-field consistency: the arch exists, the algo
// resolves for the kind, the root is in range, and any fault spec
// parses. A cluster spec (nodes > 0) additionally needs a known
// topology and design, a world-rank root, and no single-node-only
// machinery (faults, skew, deadline).
func (s Spec) Validate() error {
	if _, err := arch.ByName(s.Arch); err != nil {
		return fmt.Errorf("check: %v", err)
	}
	if s.Count < 1 {
		return fmt.Errorf("check: size %d < 1", s.Count)
	}
	if s.Procs < 2 {
		return fmt.Errorf("check: procs %d < 2", s.Procs)
	}
	if s.Nodes > 0 {
		if err := s.validateCluster(); err != nil {
			return err
		}
	} else {
		if s.Topo != "" || s.Design != "" {
			return fmt.Errorf("check: topo/design need nodes>0")
		}
		if s.Root < 0 || s.Root >= s.Procs {
			return fmt.Errorf("check: root %d out of range [0, %d)", s.Root, s.Procs)
		}
	}
	if s.Skew < 0 {
		return fmt.Errorf("check: negative skew %v", s.Skew)
	}
	if s.Ambient < 0 {
		return fmt.Errorf("check: negative ambient %d", s.Ambient)
	}
	if s.Ambient > 0 && s.Nodes > 0 {
		return fmt.Errorf("check: ambient= is single-node machinery, invalid with nodes>0")
	}
	if err := liveness.CheckDeadline(s.Deadline); err != nil {
		return fmt.Errorf("check: %v", err)
	}
	if _, err := core.LookupAlgorithm(s.Kind, s.Algo); err != nil {
		return err
	}
	if s.Faults != "" {
		if _, err := fault.Parse(s.Faults); err != nil {
			return err
		}
	}
	return nil
}

// validateCluster checks the cluster-only fields of a nodes>0 spec.
func (s Spec) validateCluster() error {
	if s.Nodes < 2 {
		return fmt.Errorf("check: nodes %d < 2 (a cluster spec needs the fabric)", s.Nodes)
	}
	if _, err := cluster.TopoByName(s.Topo, s.Nodes, 16); err != nil {
		return err
	}
	known := false
	for _, d := range cluster.Designs() {
		if string(d) == s.Design {
			known = true
		}
	}
	if !known {
		return fmt.Errorf("check: unknown design %q (want one of %v)", s.Design, cluster.Designs())
	}
	if world := s.Nodes * s.Procs; s.Root < 0 || s.Root >= world {
		return fmt.Errorf("check: root %d out of world range [0, %d)", s.Root, world)
	}
	// skew=, deadline= and the kernel-level fault classes (including
	// kill=, which routes through the world-level recovery harness) are
	// all supported on cluster specs. The one genuinely single-node
	// class left is straggler=: its delay hook lives in the single-node
	// harness loop, so it is rejected by name rather than silently
	// ignored.
	if s.Faults != "" {
		fc, err := fault.Parse(s.Faults)
		if err != nil {
			return err
		}
		if fc.StragglerProb > 0 {
			return fmt.Errorf("check: fault key straggler= is single-node machinery, invalid with nodes>0 (use skew= for staggered cluster starts)")
		}
	}
	return nil
}

// Kills reports whether the spec's fault plan arms the kill class —
// such specs route through the recovery harness and are excluded from
// the sparse cross-check (a killed rank's re-run happens on a shrunk
// communicator whose page layout is legitimately different).
func (s Spec) Kills() bool {
	fc := s.faultConfig()
	return fc != nil && fc.KillProb > 0
}

// faultConfig parses the spec's fault plan (nil when fault-free).
func (s Spec) faultConfig() *fault.Config {
	if s.Faults == "" {
		return nil
	}
	cfg, err := fault.Parse(s.Faults)
	if err != nil {
		panic(fmt.Sprintf("check: validated spec failed to re-parse: %v", err))
	}
	return &cfg
}
