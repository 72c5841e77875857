package bench

import (
	"fmt"

	"camc/internal/arch"
	"camc/internal/cluster"
	"camc/internal/core"
)

// Fig 17: multi-node MPI_Gather scalability on 2/4/8 KNL nodes (128/256/
// 512 processes). The proposed design is the two-level gather whose
// intra-node step uses the contention-aware throttled writes; the
// comparators run the flat single-level gathers large messages get in
// stock libraries.

func init() {
	register(&Experiment{
		ID:    "fig17",
		Title: "Multi-node MPI_Gather latency on KNL nodes",
		Tables: func(o Options) []Table {
			a := arch.KNL()
			ppn := 64
			sizes := sweepSizes(o.Quick, 1<<20)
			nodeCounts := []int{2, 4, 8}
			if o.Quick {
				nodeCounts = []int{2, 4}
			}
			// Each series is one cluster.Lookup design with its intra-node
			// spec ("" = tuned).
			type series struct {
				name   string
				design cluster.Design
				spec   string
			}
			designs := []series{
				{"proposed-two-level", cluster.DesignLeader, ""},
				{"flat-pt2pt (mvapich2-like)", cluster.DesignFlat, ""},
				{"flat-shm (intelmpi-like)", cluster.DesignFlatShm, ""},
				{"two-level-shm (openmpi-like)", cluster.DesignLeader, "binomial-shm"},
			}
			scatterDesigns := designs[:3]
			// One flat cell grid: the gather panels followed by the
			// companion scatter panel at the largest node count, so every
			// cluster simulation of the figure shares the worker pool.
			last := nodeCounts[len(nodeCounts)-1]
			gatherN := len(nodeCounts) * len(designs) * len(sizes)
			vals := parMap(o, gatherN+len(scatterDesigns)*len(sizes), func(i int) float64 {
				if i < gatherN {
					nodes := nodeCounts[i/(len(designs)*len(sizes))]
					d := designs[(i/len(sizes))%len(designs)]
					return clusterCell(a, core.KindGather, d.design, d.spec, nodes, ppn, sizes[i%len(sizes)], 0)
				}
				j := i - gatherN
				d := scatterDesigns[j/len(sizes)]
				return clusterCell(a, core.KindScatter, d.design, d.spec, last, ppn, sizes[j%len(sizes)], 0)
			})
			var tables []Table
			for ni, nodes := range nodeCounts {
				t := Table{
					Title:   fmt.Sprintf("Fig 17: Gather on %d KNL nodes (%d processes)", nodes, nodes*ppn),
					XHeader: "size",
					XLabels: sizeLabels(sizes),
					Notes:   []string{"latency (us); per-rank message size on the x axis"},
				}
				for di, d := range designs {
					at := (ni*len(designs) + di) * len(sizes)
					t.Series = append(t.Series, Series{Name: d.name, Values: vals[at : at+len(sizes)]})
				}
				tables = append(tables, t)
			}
			// §VII-G: "Similar performance improvements were observed
			// with MPI_Scatter" — the root-to-all panel at the largest
			// node count.
			ts := Table{
				Title:   fmt.Sprintf("Fig 17 (companion): Scatter on %d KNL nodes (%d processes)", last, last*ppn),
				XHeader: "size",
				XLabels: sizeLabels(sizes),
				Notes:   []string{"the same two-level advantage in the root-to-all direction"},
			}
			for di, d := range scatterDesigns {
				at := gatherN + di*len(sizes)
				ts.Series = append(ts.Series, Series{Name: d.name, Values: vals[at : at+len(sizes)]})
			}
			tables = append(tables, ts)
			return tables
		},
	})
}
