package measure

import (
	"strings"
	"testing"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/fault"
	"camc/internal/mpi"
)

func checkedAlgo(t *testing.T, kind core.Kind, spec string) core.Algorithm {
	t.Helper()
	if kind == core.KindReduce {
		for _, al := range core.ReduceAlgorithms(2, 4) {
			if al.Name == spec {
				return al
			}
		}
		t.Fatalf("unknown reduce algorithm %q", spec)
	}
	al, err := core.LookupAlgorithm(kind, spec)
	if err != nil {
		t.Fatal(err)
	}
	return al
}

var checkedMatrix = []struct {
	kind core.Kind
	spec string
}{
	{core.KindScatter, "throttled:4"},
	{core.KindGather, "throttled:4"},
	{core.KindBcast, "knomial-read:4"},
	{core.KindAllgather, "ring-source-read"},
	{core.KindAlltoall, "pairwise"},
	{core.KindReduce, "knomial-2"},
}

// TestCheckedCollectiveFaultFree verifies the checked runner itself:
// with no fault plan, every kind's payload verification passes and the
// latency matches the cost-only harness is positive.
func TestCheckedCollectiveFaultFree(t *testing.T) {
	a := arch.Broadwell()
	for _, tc := range checkedMatrix {
		al := checkedAlgo(t, tc.kind, tc.spec)
		lat, st, err := CollectiveChecked(a, tc.kind, al.Run, 24<<10, Options{Procs: 8})
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.kind, tc.spec, err)
		}
		if lat <= 0 {
			t.Fatalf("%s/%s: non-positive latency %v", tc.kind, tc.spec, lat)
		}
		if st != (fault.Stats{}) {
			t.Fatalf("%s/%s: fault stats without a plan: %+v", tc.kind, tc.spec, st)
		}
	}
}

// TestCheckedCollectiveCatchesCorruption proves the harness's payload
// check bites: every kind's real algorithm, followed by a one-byte flip
// in rank 1's receive buffer (specified there: rank 1 is the root of
// the rooted reductions), must fail verification at that rank. The
// last row flips rank 1's own send buffer instead, which no receive
// buffer of a root-0 scatter depends on: a collective owns only Recv,
// so the send-buffer check must catch it.
func TestCheckedCollectiveCatchesCorruption(t *testing.T) {
	a := arch.Broadwell()
	type row struct {
		kind core.Kind
		spec string
		send bool // flip the send buffer instead of the receive buffer
		want string
	}
	var rows []row
	for _, tc := range checkedMatrix {
		rows = append(rows, row{tc.kind, tc.spec, false, "rank 1 offset 0"})
	}
	rows = append(rows, row{core.KindScatter, "throttled:4", true, "rank 1 send buffer mutated at offset 0"})
	for _, tc := range rows {
		al := checkedAlgo(t, tc.kind, tc.spec)
		root := 0
		if tc.kind == core.KindGather || tc.kind == core.KindReduce {
			root = 1
		}
		corrupt := func(r *mpi.Rank, args core.Args) {
			al.Run(r, args)
			if r.ID == 1 {
				buf := args.Recv
				if tc.send {
					buf = args.Send
				}
				r.OS.Bytes(buf, 1)[0] ^= 0xFF
			}
		}
		_, _, err := CollectiveChecked(a, tc.kind, corrupt, 4<<10, Options{Procs: 4, Root: root})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s/%s: corruption not caught (%s): %v", tc.kind, tc.spec, tc.want, err)
		}
	}
}

// TestCheckedCollectiveSurvivesHeavyFaults is the core graceful-
// degradation property: under the heavy preset (which exhausts retry
// budgets and forces per-peer fallbacks) every collective still lands
// every byte exactly, and the run is strictly slower than fault-free.
func TestCheckedCollectiveSurvivesHeavyFaults(t *testing.T) {
	a := arch.Broadwell()
	cfg, err := fault.Preset("heavy")
	if err != nil {
		t.Fatal(err)
	}
	var sawFallback, sawRetry bool
	for _, tc := range checkedMatrix {
		al := checkedAlgo(t, tc.kind, tc.spec)
		base, _, err := CollectiveChecked(a, tc.kind, al.Run, 24<<10, Options{Procs: 8})
		if err != nil {
			t.Fatalf("%s/%s baseline: %v", tc.kind, tc.spec, err)
		}
		lat, st, err := CollectiveChecked(a, tc.kind, al.Run, 24<<10, Options{Procs: 8, Fault: &cfg})
		if err != nil {
			t.Fatalf("%s/%s under faults: %v", tc.kind, tc.spec, err)
		}
		if lat <= base {
			t.Errorf("%s/%s: faulty run (%v us) not slower than fault-free (%v us)", tc.kind, tc.spec, lat, base)
		}
		if st.Transients == 0 {
			t.Errorf("%s/%s: heavy preset injected no transients: %+v", tc.kind, tc.spec, st)
		}
		sawFallback = sawFallback || st.Fallbacks > 0
		sawRetry = sawRetry || st.Retries > 0
	}
	if !sawRetry {
		t.Error("no collective retried under the heavy preset")
	}
	if !sawFallback {
		t.Error("no collective degraded to the two-copy path under the heavy preset")
	}
}

// TestFaultRunsAreDeterministic: a fixed seed must reproduce the exact
// latency and the exact injection counts, run after run.
func TestFaultRunsAreDeterministic(t *testing.T) {
	a := arch.KNL()
	cfg, err := fault.Preset("moderate")
	if err != nil {
		t.Fatal(err)
	}
	al := checkedAlgo(t, core.KindScatter, "throttled:4")
	lat1, st1, err1 := CollectiveChecked(a, core.KindScatter, al.Run, 64<<10, Options{Procs: 8, Fault: &cfg})
	lat2, st2, err2 := CollectiveChecked(a, core.KindScatter, al.Run, 64<<10, Options{Procs: 8, Fault: &cfg})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if lat1 != lat2 || st1 != st2 {
		t.Fatalf("same seed diverged: %v/%v vs %+v/%+v", lat1, lat2, st1, st2)
	}
	cfg.Seed = 1234
	lat3, _, err3 := CollectiveChecked(a, core.KindScatter, al.Run, 64<<10, Options{Procs: 8, Fault: &cfg})
	if err3 != nil {
		t.Fatal(err3)
	}
	if lat3 == lat1 {
		t.Log("different seeds produced equal latency (possible but unlikely)")
	}
}

// TestTracedFaultRunIsBitIdentical extends the zero-overhead tracing
// guarantee to the fault paths: recording a faulty run must not change
// what is injected or when, so the latency stays bit-identical.
func TestTracedFaultRunIsBitIdentical(t *testing.T) {
	a := arch.Broadwell()
	cfg, err := fault.Preset("heavy")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range checkedMatrix[:4] {
		al := checkedAlgo(t, tc.kind, tc.spec)
		opts := Options{Procs: 8, Fault: &cfg}
		plain := Collective(a, tc.kind, al.Run, 32<<10, opts)
		traced, rec := CollectiveTraced(a, tc.kind, al.Run, 32<<10, opts)
		if traced != plain {
			t.Errorf("%s/%s: traced faulty latency %v != untraced %v", tc.kind, tc.spec, traced, plain)
		}
		if rec.Len() == 0 {
			t.Errorf("%s/%s: traced run recorded nothing", tc.kind, tc.spec)
		}
	}
}
