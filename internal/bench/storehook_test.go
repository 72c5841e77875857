package bench

import (
	"bytes"
	"strings"
	"testing"

	"camc/internal/arch"
	"camc/internal/store"
)

func TestArchAndKindFromTitle(t *testing.T) {
	cases := []struct {
		title string
		arch  string
		kind  string
	}{
		{"Fig 7: Scatter algorithms, " + arch.KNL().Display, "knl", "scatter"},
		{"Fig 8: Gather algorithms, " + arch.Broadwell().Display, "broadwell", "gather"},
		{"Fig 10: Allgather algorithms, " + arch.Power8().Display, "power8", "allgather"},
		{"Fig 11: Broadcast algorithms, " + arch.KNL().Display, "knl", "bcast"},
		{"Gather (throttled k=8) latency by kernel-assist mechanism, IBM Power8 (PPC64LE)", "power8", "gather"},
		{"[extension] Contention-aware Reduce", "", "reduce"},
		{"Detection latency: first death to coherent agreement (us)", "", ""},
		{"Alltoall pairwise on knl", "knl", "alltoall"},
	}
	for _, c := range cases {
		if got := archFromTitle(c.title); got != c.arch {
			t.Errorf("archFromTitle(%q) = %q, want %q", c.title, got, c.arch)
		}
		if got := kindFromTitle(c.title); got != c.kind {
			t.Errorf("kindFromTitle(%q) = %q, want %q", c.title, got, c.kind)
		}
	}
}

func TestCellRecordsFlattening(t *testing.T) {
	tab := Table{
		Title:   "Fig 7: Scatter algorithms, " + arch.KNL().Display,
		XHeader: "size",
		XLabels: []string{"4K", "64K", "1M"},
		Series: []Series{
			{Name: "throttle=4", Values: []float64{10, 20, 30}},
			{Name: "parallel-read", Values: []float64{15, 25}}, // ragged: short series
		},
		Notes: []string{"latency (us), 64 processes, full subscription"},
	}
	recs := CellRecords("run-1", "fig7", tab)
	if len(recs) != 5 {
		t.Fatalf("%d records, want 5 (ragged series truncates)", len(recs))
	}
	first := recs[0]
	if first.Type != store.TypeCell || first.RunID != "run-1" || first.Experiment != "fig7" {
		t.Fatalf("record identity wrong: %+v", first)
	}
	if first.Arch != "knl" || first.Collective != "scatter" {
		t.Fatalf("title extraction wrong: arch=%q kind=%q", first.Arch, first.Collective)
	}
	if first.Series != "throttle=4" || first.X != "4K" || first.Size != 4096 || first.Value != 10 {
		t.Fatalf("cell payload wrong: %+v", first)
	}
	if first.Unit != "us" {
		t.Fatalf("unit %q, want us", first.Unit)
	}
	// Non-size x labels keep Size 0.
	tab2 := Table{
		Title:   "Speedup vs libraries on " + arch.KNL().Display,
		XLabels: []string{"mvapich2"},
		Series:  []Series{{Name: "max", Values: []float64{3.2}}},
	}
	recs2 := CellRecords("run-1", "tab6", tab2)
	if recs2[0].Size != 0 || recs2[0].Unit != "x" {
		t.Fatalf("speedup table: %+v", recs2[0])
	}
}

// RunFormatSink must not change the rendered output, and must hand the
// sink every table in output order.
func TestRunFormatSinkTransparent(t *testing.T) {
	e, ok := ByID("tab5")
	if !ok {
		t.Fatal("tab5 not registered")
	}
	var plain, sunk bytes.Buffer
	if err := e.RunFormatSink(&plain, Options{Quick: true}, FormatTable, nil); err != nil {
		t.Fatal(err)
	}
	var tables []Table
	if err := e.RunFormatSink(&sunk, Options{Quick: true}, FormatTable, func(t Table) {
		tables = append(tables, t)
	}); err != nil {
		t.Fatal(err)
	}
	if plain.String() != sunk.String() {
		t.Fatal("sink changed the rendered output")
	}
	if len(tables) == 0 {
		t.Fatal("sink saw no tables")
	}
	for _, tab := range tables {
		if !strings.Contains(plain.String(), "## "+tab.Title) {
			t.Fatalf("sunk table %q not in output", tab.Title)
		}
	}
}
