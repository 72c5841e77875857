package main

import (
	"fmt"
	"path/filepath"
	"strings"

	"camc/internal/store"
)

// refKey identifies one baseline cell. Table is only filled where the
// title carries part of the identity (x12's metric and topology).
type refKey struct {
	exp, table, arch, coll, series, x string
}

// refs are the simulated latencies the committed baseline store holds
// for the fig7, x11 and x12 quick cells. Virtual time is
// byte-deterministic across hosts, so a benchmark op on one of these
// cells must reproduce its stored value bit for bit.
type refs struct {
	cells map[refKey]float64
}

// refExperiments are the experiments whose cells the workloads and the
// probe cells replay.
var refExperiments = map[string]bool{"fig7": true, "x11": true, "x12": true}

// loadRefs opens the baseline store read-only and indexes the latest
// bench run's cells of refExperiments.
func loadRefs(root string) (*refs, error) {
	dir := filepath.Join(root, "results", "baseline.store")
	st, err := store.Open(dir, store.Options{ReadOnly: true})
	if err != nil {
		return nil, fmt.Errorf("open baseline store: %w", err)
	}
	defer st.Close()
	_, cells, err := st.LatestRunWithCells("bench")
	if err != nil {
		return nil, fmt.Errorf("read baseline store %s: %w", dir, err)
	}
	r := &refs{cells: map[refKey]float64{}}
	for _, c := range cells {
		if !refExperiments[c.Experiment] {
			continue
		}
		k := refKey{exp: c.Experiment, arch: c.Arch, coll: c.Collective, series: c.Series, x: c.X}
		if c.Experiment == "x12" {
			k.table = x12TableKey(c.Table)
		}
		r.cells[k] = c.Value
	}
	return r, nil
}

// x12TableKey reduces an x12 table title ("Detection latency: ... —
// fattree fabric, gather, ...") to "<metric>/<topo>".
func x12TableKey(title string) string {
	metric, rest, ok := strings.Cut(title, " — ")
	if !ok {
		return title
	}
	topo, _, _ := strings.Cut(rest, " ")
	metric, _, _ = strings.Cut(metric, ":")
	return metric + "/" + topo
}

// get returns the reference for k; a missing reference is a benchmark
// error, never a skipped check.
func (r *refs) get(k refKey) (float64, error) {
	v, ok := r.cells[k]
	if !ok {
		return 0, fmt.Errorf("baseline store has no reference for %+v", k)
	}
	return v, nil
}
