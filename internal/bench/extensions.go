package bench

import (
	"fmt"

	"camc/internal/arch"
	"camc/internal/cluster"
	"camc/internal/core"
	"camc/internal/kernel"
	"camc/internal/measure"
	"camc/internal/model"
	"camc/internal/mpi"
	"camc/internal/sim"
	"camc/internal/stats"
	"camc/internal/tuner"
)

// Extension experiments (ids x1–x5): studies beyond the paper's
// evaluation that its text motivates — the kernel-assist mechanism
// spectrum of Table I/§VIII, the process-skew sensitivity §V-A mentions,
// and the §IX future-work designs (contention-aware Reduce, pipelined
// two-level gather).

func init() {
	register(&Experiment{
		ID:    "x1",
		Title: "[extension] Kernel-assist mechanisms: CMA vs KNEM vs LiMIC vs XPMEM",
		Tables: func(o Options) []Table {
			a := arch.KNL()
			if o.Arch != "" {
				a = o.archs(arch.KNL())[0]
			}
			sizes := sweepSizes(o.Quick, 1<<20)
			mechs := []kernel.Mechanism{kernel.MechCMA, kernel.MechKNEM, kernel.MechLiMIC, kernel.MechXPMEM}
			t := Table{
				Title:   "Gather (throttled k=8) latency by kernel-assist mechanism, " + a.Display,
				XHeader: "size",
				XLabels: sizeLabels(sizes),
				Notes: []string{
					"CMA/KNEM/LiMIC share the contended get_user_pages path (Table I);",
					"XPMEM attaches once and then copies without kernel page locking,",
					"so it dodges the contention the paper's designs throttle around",
				},
			}
			naive := Table{
				Title:   "Gather (naive parallel writes) latency by mechanism, " + a.Display,
				XHeader: "size",
				XLabels: sizeLabels(sizes),
				Notes:   []string{"the contention-unaware design: mechanism choice matters far more here"},
			}
			type pair struct{ throttled, naive float64 }
			cells := parMap(o, len(mechs)*len(sizes), func(i int) pair {
				m, sz := mechs[i/len(sizes)], sizes[i%len(sizes)]
				return pair{
					throttled: measure.Collective(a, core.KindGather,
						core.GatherThrottled(8), sz, measure.Options{Mechanism: m}),
					naive: measure.Collective(a, core.KindGather,
						core.GatherParallelWrite, sz, measure.Options{Mechanism: m}),
				}
			})
			for mi, m := range mechs {
				s := Series{Name: m.String()}
				ns := Series{Name: m.String()}
				for si := range sizes {
					c := cells[mi*len(sizes)+si]
					s.Values = append(s.Values, c.throttled)
					ns.Values = append(ns.Values, c.naive)
				}
				t.Series = append(t.Series, s)
				naive.Series = append(naive.Series, ns)
			}
			return []Table{t, naive}
		},
	})

	register(&Experiment{
		ID:    "x2",
		Title: "[extension] Process-skew and the contention dynamics",
		Tables: func(o Options) []Table {
			a := arch.KNL()
			if o.Arch != "" {
				a = o.archs(arch.KNL())[0]
			}
			const size = 256 << 10
			skews := []float64{0, 100, 1000, 10000}
			if o.Quick {
				skews = []float64{0, 10000}
			}
			labels := make([]string, len(skews))
			for i, sk := range skews {
				labels[i] = fmt.Sprintf("%.0f", sk)
			}
			specs := []struct {
				kind core.Kind
				algo namedAlgo
			}{
				{core.KindBcast, namedAlgo{"direct-read", core.BcastDirectRead}},
				{core.KindScatter, namedAlgo{"scatter-throttle-8", core.ScatterThrottled(8)}},
				{core.KindAllgather, namedAlgo{"ring-source-read", core.AllgatherRingSourceRead}},
				{core.KindAllgather, namedAlgo{"ring-neighbor-1", core.AllgatherRingNeighbor(1)}},
			}
			vals := parMap(o, len(specs)*len(skews), func(i int) float64 {
				sp, sk := specs[i/len(skews)], skews[i%len(skews)]
				opts := measure.Options{}
				if sk > 0 {
					opts.SkewSeed = 42
					opts.MaxSkew = sk
				}
				return measure.Collective(a, sp.kind, sp.algo.run, size, opts)
			})
			rowOf := func(idx int) Series {
				return Series{Name: specs[idx].algo.name, Values: vals[idx*len(skews) : (idx+1)*len(skews)]}
			}
			relief := Table{
				Title:   fmt.Sprintf("One-to-all designs (256K) under per-rank start skew, %s", a.Display),
				XHeader: "max-skew(us)",
				XLabels: labels,
				Notes: []string{
					"latency measured from the last rank's start;",
					"spreading arrivals thins the concurrent-reader set, so the naive",
					"direct-read bcast speeds up dramatically — contention, not copy",
					"bandwidth, was its bottleneck. The throttled design barely moves:",
					"it already bounds concurrency by construction",
				},
			}
			relief.Series = append(relief.Series, rowOf(0), rowOf(1))
			robust := Table{
				Title:   fmt.Sprintf("Allgather rings (256K) under per-rank start skew, %s", a.Display),
				XHeader: "max-skew(us)",
				XLabels: labels,
				Notes: []string{
					"§V-A warns skew can pile ring-source readers onto one source;",
					"in practice the transient double-reads are brief and both ring",
					"schedules tolerate even milliseconds of skew",
				},
			}
			robust.Series = append(robust.Series, rowOf(2), rowOf(3))
			return []Table{relief, robust}
		},
	})

	register(&Experiment{
		ID:    "x3",
		Title: "[extension] Contention-aware Reduce (the paper's future work)",
		Tables: func(o Options) []Table {
			a := arch.KNL()
			if o.Arch != "" {
				a = o.archs(arch.KNL())[0]
			}
			sizes := sweepSizes(o.Quick, 1<<20)
			t := Table{
				Title:   "Reduce algorithm latency, " + a.Display,
				XHeader: "size",
				XLabels: sizeLabels(sizes),
				Notes: []string{
					"parallel-write is the γ_{p−1} contention-prone design; the binary",
					"CMA tree wins at large sizes (deep beats wide for reductions: a",
					"parent serializes its children's read+combine work)",
				},
			}
			algos := []namedAlgo{
				{"knomial-2", core.ReduceKnomial(2)},
				{"knomial-9", core.ReduceKnomial(9)},
				{"binomial-pt2pt", core.ReduceBinomialPt2pt(core.TransportPt2pt)},
				{"binomial-shm", core.ReduceBinomialPt2pt(core.TransportShm)},
				{"parallel-write", core.ReduceParallelWrite},
				{"flat-sequential", core.ReduceFlat},
			}
			vals := parMap(o, len(algos)*len(sizes), func(i int) float64 {
				return measure.Collective(a, core.KindReduce,
					algos[i/len(sizes)].run, sizes[i%len(sizes)], measure.Options{})
			})
			for ai, al := range algos {
				t.Series = append(t.Series, Series{
					Name:   al.name,
					Values: vals[ai*len(sizes) : (ai+1)*len(sizes)],
				})
			}
			return []Table{t}
		},
	})

	register(&Experiment{
		ID:    "x4",
		Title: "[extension] Pipelined two-level gather (the paper's future work)",
		Tables: func(o Options) []Table {
			a := arch.KNL()
			ppn := 64
			nodes := 4
			sizes := sweepSizes(o.Quick, 1<<20)
			t := Table{
				Title:   fmt.Sprintf("Two-level gather on %d KNL nodes: plain vs pipelined", nodes),
				XHeader: "size",
				XLabels: sizeLabels(sizes),
				Notes:   []string{"segmentation overlaps inter-node drains with the next segment's intra-node gather"},
			}
			designs := []struct {
				name     string
				segments int
			}{
				{"two-level", 0},
				{"pipelined-2", 2},
				{"pipelined-4", 4},
				{"pipelined-8", 8},
			}
			vals := parMap(o, len(designs)*len(sizes), func(i int) float64 {
				return clusterCell(a, core.KindGather, cluster.DesignLeader, "", nodes, ppn, sizes[i%len(sizes)], designs[i/len(sizes)].segments)
			})
			for di, d := range designs {
				t.Series = append(t.Series, Series{
					Name:   d.name,
					Values: vals[di*len(sizes) : (di+1)*len(sizes)],
				})
			}
			return []Table{t}
		},
	})
}

func init() {
	register(&Experiment{
		ID:    "x5",
		Title: "[extension] Autotuned dispatch tables (the MVAPICH2 tuning framework analogue)",
		Tables: func(o Options) []Table {
			archs := o.archs(arch.All()...)
			cfg := tuner.Config{Jobs: o.Jobs}
			if o.Quick {
				cfg.ProbeSizes = []int64{16 << 10, 1 << 20}
			}
			var tables []Table
			for _, a := range archs {
				tab := tuner.Autotune(a, cfg)
				t := Table{
					Title:   "Measured dispatch table, " + a.Display,
					XHeader: "collective/bucket",
					Notes: []string{
						"winner per message-size bucket, derived from probe measurements",
						"reproduces the hand-tuned selections: throttle sweet spots, shm",
						"thresholds, scatter-allgather at the top sizes",
					},
				}
				probes := Series{Name: "probe-lat(us)"}
				for _, kind := range tuner.Kinds() {
					for _, e := range tab.Entries[kind] {
						bound := "inf"
						if e.MaxSize != int64(^uint64(0)>>1) {
							bound = sizeLabel(e.MaxSize)
						}
						t.XLabels = append(t.XLabels, fmt.Sprintf("%s <=%s: %s", kind, bound, e.Name))
						probes.Values = append(probes.Values, e.Latency)
					}
				}
				t.Series = []Series{probes}
				tables = append(tables, t)
			}
			return tables
		},
	})
}

// x6: a model-accuracy audit — every closed-form predictor against the
// simulated execution, as relative error percentages. x7: the
// emergent-lock ablation — what the contention factor looks like when
// the mm lock is modeled as a fair FIFO mutex instead of the calibrated
// γ(c) curve.

func init() {
	register(&Experiment{
		ID:    "x6",
		Title: "[extension] Model-accuracy audit: every closed form vs the simulator",
		Tables: func(o Options) []Table {
			a := arch.KNL()
			if o.Arch != "" {
				a = o.archs(arch.KNL())[0]
			}
			sizes := []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20}
			if o.Quick {
				sizes = []int64{256 << 10, 1 << 20}
			}
			p := model.Estimate(a)
			if _, err := p.FitGamma(model.MeasureGammaCurve(a, []int{50}, gammaConcurrencies(a, true))); err != nil {
				panic(err)
			}
			pr := model.NewPredictor(p, a.DefaultProcs)
			rows := []struct {
				name    string
				kind    core.Kind
				run     func(*mpi.Rank, core.Args)
				predict func(int64) float64
			}{
				{"scatter/parallel-read", core.KindScatter, core.ScatterParallelRead, pr.ScatterParallelRead},
				{"scatter/sequential-write", core.KindScatter, core.ScatterSeqWrite, pr.ScatterSeqWrite},
				{"scatter/throttled-8", core.KindScatter, core.ScatterThrottled(8), func(n int64) float64 { return pr.ScatterThrottled(n, 8) }},
				{"gather/parallel-write", core.KindGather, core.GatherParallelWrite, pr.GatherParallelWrite},
				{"gather/throttled-8", core.KindGather, core.GatherThrottled(8), func(n int64) float64 { return pr.GatherThrottled(n, 8) }},
				{"bcast/direct-read", core.KindBcast, core.BcastDirectRead, pr.BcastDirectRead},
				{"bcast/direct-write", core.KindBcast, core.BcastDirectWrite, pr.BcastDirectWrite},
				{"bcast/knomial-9", core.KindBcast, core.BcastKnomialRead(9), func(n int64) float64 { return pr.BcastKnomial(n, 9) }},
				{"bcast/scatter-allgather", core.KindBcast, core.BcastScatterAllgather, pr.BcastScatterAllgather},
				{"allgather/ring-source", core.KindAllgather, core.AllgatherRingSourceRead, pr.AllgatherRing},
				{"allgather/bruck", core.KindAllgather, core.AllgatherBruck, pr.AllgatherBruck},
				{"alltoall/pairwise-coll", core.KindAlltoall, core.AlltoallPairwiseColl, pr.AlltoallPairwise},
				{"reduce/flat", core.KindReduce, core.ReduceFlat, pr.ReduceFlat},
				{"reduce/knomial-2", core.KindReduce, core.ReduceKnomial(2), func(n int64) float64 { return pr.ReduceKnomial(n, 2) }},
				{"reduce/parallel-write", core.KindReduce, core.ReduceParallelWrite, pr.ReduceParallelWrite},
			}
			t := Table{
				Title:   "Closed-form prediction error (%) vs simulated latency, " + a.Display,
				XHeader: "algorithm",
				Notes: []string{
					"parameters estimated via the Table III procedure, gamma NLLS-fitted",
					"scatter-allgather and reduce formulas are this repo's extensions;",
					"the rest are the paper's Section IV-V equations",
				},
			}
			cols := make([]Series, len(sizes))
			for i, sz := range sizes {
				cols[i] = Series{Name: sizeLabel(sz)}
			}
			measured := parMap(o, len(rows)*len(sizes), func(i int) float64 {
				row, sz := rows[i/len(sizes)], sizes[i%len(sizes)]
				return measure.Collective(a, row.kind, row.run, sz, measure.Options{})
			})
			for ri, row := range rows {
				t.XLabels = append(t.XLabels, row.name)
				for i, sz := range sizes {
					m := measured[ri*len(sizes)+i]
					cols[i].Values = append(cols[i].Values, 100*stats.RelErr(row.predict(sz), m))
				}
			}
			t.Series = cols
			return []Table{t}
		},
	})

	register(&Experiment{
		ID:    "x7",
		Title: "[extension] Emergent FIFO-lock contention vs the calibrated gamma curve",
		Tables: func(o Options) []Table {
			a := arch.KNL()
			if o.Arch != "" {
				a = o.archs(arch.KNL())[0]
			}
			concs := []int{1, 2, 4, 8, 16, 32, 63}
			if o.Quick {
				concs = []int{1, 4, 16, 63}
			}
			t := Table{
				Title:   "Per-reader lock-phase inflation (gamma-equivalent), " + a.Display,
				XHeader: "readers",
				Notes: []string{
					"emergent = mm lock as an explicit fair FIFO mutex: queueing alone",
					"yields only linear inflation (gamma ~ c). The measured curves the",
					"paper fits are super-linear — spinlock cache-line bouncing — which",
					"is why the simulator (and the paper's model) carry gamma explicitly",
				},
			}
			emergent := Series{Name: "emergent-fifo"}
			curve := Series{Name: "calibrated-gamma"}
			linear := Series{Name: "linear-reference"}
			lockTimes := parMap(o, len(concs), func(i int) float64 {
				return emergentLockTime(a, concs[i])
			})
			base := 0.0
			for ci, c := range concs {
				t.XLabels = append(t.XLabels, fmt.Sprintf("%d", c))
				lt := lockTimes[ci]
				if c == 1 {
					base = lt
				}
				emergent.Values = append(emergent.Values, lt/base)
				curve.Values = append(curve.Values, a.Gamma(c))
				linear.Values = append(linear.Values, float64(c))
			}
			t.Series = []Series{emergent, curve, linear}
			return []Table{t}
		},
	})
}

// emergentLockTime measures the mean per-reader lock phase of c
// concurrent 128-page reads under the explicit-mutex kernel mode.
func emergentLockTime(a *arch.Profile, c int) float64 {
	s := sim.New()
	n := kernel.NewNode(s, a)
	n.CopyData = false
	n.EmergentLock = true
	size := int64(128) * int64(a.PageSize)
	src := n.NewProcess(size*int64(c) + 1<<20)
	sa := src.Alloc(size * int64(c))
	locks := make([]float64, c)
	for i := 0; i < c; i++ {
		i := i
		dst := n.NewProcess(size + 1<<20)
		da := dst.Alloc(size)
		s.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			bd, err := dst.VMReadPartial(p, da, src, sa+kernel.Addr(int64(i)*size), size, size)
			if err != nil {
				panic(err)
			}
			locks[i] = bd.Lock
		})
	}
	if err := s.Run(); err != nil {
		panic(err)
	}
	return stats.Mean(locks)
}
