package bench

import (
	"fmt"

	"camc/internal/arch"
	"camc/internal/cluster"
	"camc/internal/core"
	"camc/internal/fault"
	"camc/internal/liveness"
	"camc/internal/measure"
)

// x9: the chaos experiment. Every cell runs one collective with real
// data movement under a fault plan that permanently kills 1..k ranks
// mid-operation, then drives the full recovery cycle: deadline-bounded
// detection (no survivor blocks past the configured deadline), a
// coherent-error agreement round (every survivor returns the identical
// failed-rank set), communicator shrink with a fresh transport and a
// re-run of the one-time address exchange, algorithm re-planning for
// the (possibly non-power-of-two, re-rooted) survivor count, and a
// verified re-run: every byte of the survivors' payload is checked
// against what a fresh communicator of that size would produce. A
// failed verification or an incoherent verdict panics the sweep.

// DefaultDeadline is the liveness detector deadline x9 runs with when
// Options.Deadline is zero (simulated microseconds). The camc-bench
// -deadline flag documents 0 as "experiment default"; this constant is
// that default, and the CLI resolves a kill plan without an explicit
// -deadline to it rather than leaving the field 0.
const DefaultDeadline = 2_000

// chaosScenario is one column of the x9 tables: a kill plan seeded to
// arm a known number of ranks for mid-collective death. A nil cfg is
// the no-failure baseline.
type chaosScenario struct {
	name string
	cfg  *fault.Config
}

// findKillSeed searches seeds until the kill pick (a pure function of
// seed and rank — see fault.Plan.KillPoint) arms exactly want of the
// procs ranks at probability prob. Rank 0 is never picked, so want
// must be < procs. An armed rank dies when its operation counter
// reaches its kill point — unless the collective aborts under another
// rank's death first (see the survivor-accounting table).
func findKillSeed(procs, want, maxOp int, prob float64) fault.Config {
	for seed := int64(1); seed < 10_000; seed++ {
		cfg := fault.Config{Seed: seed, KillProb: prob, KillMaxOp: maxOp}
		p := fault.New(cfg)
		picked := 0
		for r := 0; r < procs; r++ {
			if p.KillPoint(r) != -1 {
				picked++
			}
		}
		if picked == want {
			return cfg
		}
	}
	panic(fmt.Sprintf("bench: no seed kills exactly %d of %d ranks at prob %g", want, procs, prob))
}

func chaosScenarios(o Options, procs int) []chaosScenario {
	scens := []chaosScenario{{name: "no-failure"}}
	kills := []int{1}
	if !o.Quick {
		kills = []int{1, 2, 3}
	}
	for _, k := range kills {
		// The single-kill scenario lets the victim die up to 8 ops deep —
		// mid-algorithm, after the address exchange. The multi-kill
		// scenarios pin every kill point to the first op: a death aborts
		// every blocked survivor within one poll quantum, so deaths that
		// should land together must fire before the first one propagates.
		maxOp := 8
		if k > 1 {
			maxOp = 1
		}
		cfg := findKillSeed(procs, k, maxOp, 0.35)
		scens = append(scens, chaosScenario{name: fmt.Sprintf("kill-%d", k), cfg: &cfg})
	}
	if o.Fault != nil && o.Fault.KillProb > 0 {
		scens = append(scens, chaosScenario{name: "custom", cfg: o.Fault})
	}
	return scens
}

func init() {
	register(&Experiment{
		ID:    "x9",
		Title: "[extension] Chaos: permanent rank death, agreement, shrink and verified re-run",
		Tables: func(o Options) []Table {
			a := arch.Broadwell()
			if o.Arch != "" {
				a = o.archs(arch.Broadwell())[0]
			}
			const procs = 8
			count := int64(64 << 10)
			if o.Quick {
				count = 8 << 10
			}
			lcfg := liveness.Config{Deadline: DefaultDeadline, Poll: 5}
			if o.Deadline > 0 {
				lcfg.Deadline = o.Deadline
			}
			scens := chaosScenarios(o, procs)
			colls := robustCollectives(o)

			cells := parMap(o, len(colls)*len(scens), func(i int) measure.RecoveryResult {
				cl, sc := colls[i/len(scens)], scens[i%len(scens)]
				res, err := measure.CollectiveRecovered(a, cl.kind, cl.spec, count,
					measure.Options{Procs: procs, Fault: sc.cfg, Liveness: &lcfg})
				if err != nil {
					panic(fmt.Sprintf("bench: x9 %s under %s: %v", cl.name, sc.name, err))
				}
				if sc.cfg != nil && res.Err == nil {
					panic(fmt.Sprintf("bench: x9 %s under %s: kill plan produced no failure", cl.name, sc.name))
				}
				return res
			})
			cellAt := func(ci, si int) measure.RecoveryResult { return cells[ci*len(scens)+si] }

			first := Table{
				Title:   fmt.Sprintf("First-attempt latency, %s, %d ranks, %s per rank (us)", a.Display, procs, sizeLabel(count)),
				XHeader: "collective",
				Notes: []string{
					"time until the last survivor exits the protected collective with its",
					fmt.Sprintf("local verdict; deadline-bounded (detector deadline %gus, poll %gus)", float64(lcfg.Deadline), float64(lcfg.Poll)),
				},
			}
			detect := Table{
				Title:   "Detection latency: first death to coherent agreement (us)",
				XHeader: "collective",
				Notes: []string{
					"every survivor returns the identical *PeerDeadError and failed set;",
					"agreement runs before shrink so survivors rebuild compatible communicators",
				},
			}
			shrink := Table{
				Title:   "Shrink latency: agreement to rebuilt, address-exchanged communicator (us)",
				XHeader: "collective",
			}
			rerun := Table{
				Title:   "Re-run latency on the shrunken communicator (us)",
				XHeader: "collective",
				Notes: []string{
					"algorithms re-planned for the survivor count (throttle/radix/stride",
					"clamped, dead roots re-rooted); every payload byte verified",
				},
			}
			for si, sc := range scens {
				fs := Series{Name: sc.name}
				for ci := range colls {
					fs.Values = append(fs.Values, cellAt(ci, si).FirstLatency)
				}
				first.Series = append(first.Series, fs)
				if sc.cfg == nil {
					continue
				}
				ds := Series{Name: sc.name}
				ss := Series{Name: sc.name}
				rs := Series{Name: sc.name}
				for ci := range colls {
					c := cellAt(ci, si)
					ds.Values = append(ds.Values, c.DetectLatency)
					ss.Values = append(ss.Values, c.ShrinkLatency)
					rs.Values = append(rs.Values, c.RerunLatency)
				}
				detect.Series = append(detect.Series, ds)
				shrink.Series = append(shrink.Series, ss)
				rerun.Series = append(rerun.Series, rs)
			}
			for _, cl := range colls {
				first.XLabels = append(first.XLabels, cl.name)
				detect.XLabels = append(detect.XLabels, cl.name)
				shrink.XLabels = append(shrink.XLabels, cl.name)
				rerun.XLabels = append(rerun.XLabels, cl.name)
			}

			// Survivor accounting. The seed *arms* a fixed set of ranks, but
			// an armed rank races its own kill point against the collective's
			// abort: once another rank dies, a survivor's next blocked wait
			// aborts with a peer-death error, and a rank that aborts before
			// reaching its kill op never dies. So the agreed death count is
			// per-cell, bounded above by the armed count — exactly the
			// non-determinism-under-a-deterministic-seed a chaos experiment
			// is after (each cell is still exactly reproducible). The cell
			// assembly asserts the invariants that must hold: every agreed
			// death was a fired kill, and survivors = procs − agreed.
			acct := Table{
				Title:   "Agreed deaths per cell (seed arms N ranks; aborting early saves you)",
				XHeader: "collective",
				Notes: []string{
					fmt.Sprintf("%d ranks; survivors = ranks − agreed deaths; every survivor of a", procs),
					"cell returned the identical failed-rank set (asserted in-harness)",
				},
			}
			for si, sc := range scens {
				if sc.cfg == nil {
					continue
				}
				s := Series{Name: sc.name}
				for ci := range colls {
					c := cellAt(ci, si)
					if int64(len(c.Failed)) != c.Stats.Kills {
						panic(fmt.Sprintf("bench: x9 %s under %s: %d agreed deaths but %d fired kills",
							colls[ci].name, sc.name, len(c.Failed), c.Stats.Kills))
					}
					if c.Survivors != procs-len(c.Failed) {
						panic(fmt.Sprintf("bench: x9 %s under %s: %d survivors with %d deaths",
							colls[ci].name, sc.name, c.Survivors, len(c.Failed)))
					}
					s.Values = append(s.Values, float64(len(c.Failed)))
				}
				acct.Series = append(acct.Series, s)
			}
			for _, cl := range colls {
				acct.XLabels = append(acct.XLabels, cl.name)
			}

			return []Table{first, detect, shrink, rerun, acct}
		},
	})
}

// x12: chaos at scale. Where x9 kills ranks inside one shared-memory
// node, this experiment kills them across the contention-aware fabric:
// 1-4 ranks die mid-collective (a node member, a node leader, or a
// whole node) on 64-1024 node clusters, and every cell drives the full
// world-level recovery pipeline — fabric-crossing detection (leaders
// gossip remote-node liveness over γ_net-costed links), a world
// agreement round, the two-tier shrink rebuilding the cluster rank
// table at both PPN and node granularity, deterministic leader
// re-election (successor = the node's lowest-world-rank survivor;
// orphaned nodes re-run the leader-phase address exchange), and a
// re-planned re-run over the survivor world. The cells report what each
// recovery stage costs in virtual time and how those costs scale with
// the fabric; killing a leader must cost measurably more than killing a
// member (the orphan republication plus the coordinator's
// challenge-response), which the assembly asserts cell by cell.

// x12Scenario is one death pattern on node 1 of a PPN-4 cluster:
// world ranks 4..7. Rank 0 (the coordinator side) is never killed.
type x12Scenario struct {
	name  string
	kills []cluster.Kill
}

func x12Scenarios() []x12Scenario {
	return []x12Scenario{
		{"kill-member", []cluster.Kill{{World: 5, Op: 1}}},
		{"kill-leader", []cluster.Kill{{World: 4, Op: 1}}},
		{"kill-node", []cluster.Kill{{World: 4, Op: 1}, {World: 5, Op: 1}, {World: 6, Op: 1}, {World: 7, Op: 1}}},
	}
}

const (
	x12PPN   = 4
	x12Count = int64(64)
)

// x12Cell runs one (topo, design, nodes, scenario) recovery cycle,
// dataless (payload verification at these shapes is the measure and
// check suites' job; the experiment measures virtual-time costs).
func x12Cell(a *arch.Profile, topo string, design cluster.Design, nodes int, sc x12Scenario, lcfg liveness.Config) measure.ClusterRecoveryResult {
	res, err := measure.ClusterRecovered(a, core.KindGather, design, "tuned", x12Count,
		measure.ClusterOptions{Nodes: nodes, PPN: x12PPN, Topo: topo, Root: 0,
			Liveness: &lcfg, Kills: sc.kills})
	if err != nil {
		panic(fmt.Sprintf("bench: x12 %s/%s/%d under %s: %v", topo, design, nodes, sc.name, err))
	}
	if res.Survivors != nodes*x12PPN-len(sc.kills) {
		panic(fmt.Sprintf("bench: x12 %s/%s/%d under %s: %d survivors after %d kills",
			topo, design, nodes, sc.name, res.Survivors, len(sc.kills)))
	}
	return res
}

func init() {
	register(&Experiment{
		ID:    "x12",
		Title: "[extension] Chaos at scale: cross-fabric death, re-election and two-tier shrink, 64-1024 nodes",
		Tables: func(o Options) []Table {
			a := arch.KNL()
			if o.Arch != "" {
				a = o.archs(arch.KNL())[0]
			}
			nodes := []int{64, 256, 1024}
			if o.Quick {
				nodes = []int{64, 256}
			}
			lcfg := liveness.Config{Deadline: DefaultDeadline, Poll: 10}
			if o.Deadline > 0 {
				lcfg.Deadline = o.Deadline
			}
			topos := []string{"fattree", "dragonfly"}
			designs := cluster.Designs()
			scens := x12Scenarios()

			type cellKey struct{ ti, di, ni, si int }
			var keys []cellKey
			for ti := range topos {
				for di := range designs {
					for ni := range nodes {
						for si := range scens {
							keys = append(keys, cellKey{ti, di, ni, si})
						}
					}
				}
			}
			cells := parMap(o, len(keys), func(i int) measure.ClusterRecoveryResult {
				k := keys[i]
				return x12Cell(a, topos[k.ti], designs[k.di], nodes[k.ni], scens[k.si], lcfg)
			})
			at := func(ti, di, ni, si int) measure.ClusterRecoveryResult {
				return cells[((ti*len(designs)+di)*len(nodes)+ni)*len(scens)+si]
			}

			// Leader death must cost strictly more election time than a
			// member death on the same shape: the orphaned node re-runs
			// the leader-phase address exchange and its successor answers
			// the coordinator's challenge.
			for ti := range topos {
				for di := range designs {
					for ni := range nodes {
						le := at(ti, di, ni, 1).ElectLatency
						me := at(ti, di, ni, 0).ElectLatency
						if le <= me {
							panic(fmt.Sprintf("bench: x12 %s/%s/%d: leader-death election (%.2fus) not costlier than member-death (%.2fus)",
								topos[ti], designs[di], nodes[ni], le, me))
						}
					}
				}
			}

			metrics := []struct {
				name  string
				get   func(measure.ClusterRecoveryResult) float64
				notes []string
			}{
				{"Detection latency: first death to world agreement (us)",
					func(c measure.ClusterRecoveryResult) float64 { return c.DetectLatency },
					[]string{
						"intra-node deaths revoke blocked waits within a poll quantum; deaths only",
						fmt.Sprintf("visible across the fabric ride probes bounded by the %gus deadline", float64(lcfg.Deadline)),
					}},
				{"Shrink latency: agreement to rebuilt two-tier rank table (us)",
					func(c measure.ClusterRecoveryResult) float64 { return c.ShrinkLatency },
					[]string{
						"drain, survivor barrier, fresh liveness views, node-local shrink at every",
						"PPN count including whole-node loss",
					}},
				{"Re-election latency: survivor table to verified leader table (us)",
					func(c measure.ClusterRecoveryResult) float64 { return c.ElectLatency },
					[]string{
						"successor = lowest-world-rank survivor per node (deterministic, no votes);",
						"orphaned nodes republish intra-node and answer the coordinator challenge",
					}},
				{"Re-run latency over the survivor world (us)",
					func(c measure.ClusterRecoveryResult) float64 { return c.RerunLatency },
					[]string{
						"two-level leader decomposition re-planned per node; dead roots re-rooted",
						"to new id 0",
					}},
			}
			var out []Table
			for ti, topo := range topos {
				for _, m := range metrics {
					t := Table{
						Title:   fmt.Sprintf("%s — %s fabric, gather, ppn %d, %s", m.name, topo, x12PPN, a.Display),
						XHeader: "nodes",
						Notes:   m.notes,
					}
					for di, d := range designs {
						for si, sc := range scens {
							s := Series{Name: fmt.Sprintf("%s/%s", d, sc.name)}
							for ni := range nodes {
								s.Values = append(s.Values, m.get(at(ti, di, ni, si)))
							}
							t.Series = append(t.Series, s)
						}
					}
					for _, n := range nodes {
						t.XLabels = append(t.XLabels, fmt.Sprintf("%d", n))
					}
					out = append(out, t)
				}
			}
			return out
		},
	})
}
