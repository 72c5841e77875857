package check

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"camc/internal/core"
)

var update = flag.Bool("update", false, "rewrite "+runOneGolden+" from the pinned corpus")

const runOneGolden = "testdata/runone.golden"

// digestLine renders everything a checked run reports that a refactor
// of the run paths must not move: latency and prediction bits, event
// and trace counts, fault statistics, the recovery record, the cluster
// election latency, the per-rank digests, and the error text.
func digestLine(label string, res *RunResult, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s |", label)
	if res != nil {
		fmt.Fprintf(&b, " lat=%016x pred=%016x ev=%d procs=%d killed=%t stats=%+v elect=%016x",
			math.Float64bits(res.Latency), math.Float64bits(res.Pred), res.Events, res.Procs, res.Killed,
			res.Stats, math.Float64bits(res.Elect))
		if res.Rec != nil {
			fmt.Fprintf(&b, " trace=%d", res.Rec.Len())
		}
		if rr := res.Recovery; rr != nil {
			fmt.Fprintf(&b, " rec={first=%016x err=%v failed=%v surv=%d algo=%s det=%016x shr=%016x rer=%016x stats=%+v}",
				math.Float64bits(rr.FirstLatency), rr.Err, rr.Failed, rr.Survivors, rr.Algorithm,
				math.Float64bits(rr.DetectLatency), math.Float64bits(rr.ShrinkLatency),
				math.Float64bits(rr.RerunLatency), rr.Stats)
		}
		if res.Digests != nil {
			h := fnv.New64a()
			for _, d := range res.Digests {
				fmt.Fprintf(h, "%x,", d)
			}
			fmt.Fprintf(&b, " digests=%016x", h.Sum64())
		}
		fmt.Fprintf(&b, " residue=%d links=%d", len(res.Residue), len(res.Links))
	}
	fmt.Fprintf(&b, " err=%q", fmt.Sprint(err))
	return b.String()
}

// TestRunOneDigest pins RunOne's and SparseCrossCheck's outputs over a
// fixed corpus: single-node specs with fault and kill plans, cluster
// specs with kill plans, sparse cross-check arms, and invalid specs for
// the error text. Any change to the seed → run → verify paths must
// leave every line byte-identical; regenerate with
// go test ./internal/check -run TestRunOneDigest -update only for an
// intended behaviour change.
func TestRunOneDigest(t *testing.T) {
	var lines []string
	for i := 0; i < 120; i++ {
		sp := Gen(1, i, GenOptions{Faults: true, Kills: true})
		res, err := RunOne(sp)
		lines = append(lines, digestLine(sp.String(), res, err))
	}
	for i := 0; i < 60; i++ {
		sp := Gen(2, i, GenOptions{Faults: true, Kills: true, Cluster: true})
		res, err := RunOne(sp)
		lines = append(lines, digestLine(sp.String(), res, err))
	}
	for i := 0; i < 30; i++ {
		sp := Gen(3, i, GenOptions{Faults: true})
		res, err := SparseCrossCheck(sp)
		lines = append(lines, digestLine("sparse "+sp.String(), res, err))
	}
	for _, sp := range []Spec{
		{Arch: "epyc", Kind: core.KindBcast, Algo: "direct-read", Count: 64, Procs: 4},
		{Arch: "knl", Kind: core.KindBcast, Algo: "nope", Count: 64, Procs: 4},
		{Arch: "knl", Kind: core.KindGather, Algo: "throttled:4", Count: 64, Procs: 4, Root: 9},
	} {
		res, err := RunOne(sp)
		lines = append(lines, digestLine(sp.String(), res, err))
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(runOneGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(runOneGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	wl := strings.Split(string(want), "\n")
	for i, l := range lines {
		if i >= len(wl) || wl[i] != l {
			w := "<missing>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Errorf("line %d moved:\n got  %s\n want %s", i+1, l, w)
		}
	}
	if len(wl) != len(lines)+1 {
		t.Errorf("golden has %d lines, corpus %d", len(wl)-1, len(lines))
	}
}
