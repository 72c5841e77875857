package bench

import (
	"fmt"

	"camc/internal/arch"
	"camc/internal/cluster"
	"camc/internal/core"
	"camc/internal/kernel"
	"camc/internal/measure"
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
