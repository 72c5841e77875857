package check

import "testing"

// TestSparseCrossCheckCorpus replays a slice of the fuzzer's seeded
// corpus (faults on, kills off) through the sparse cross-check: every
// spec must produce bit-identical latencies, event counts and per-rank
// digests between the materialized and checksum-summary arms.
func TestSparseCrossCheckCorpus(t *testing.T) {
	gopts := GenOptions{Faults: true}
	n := 40
	if testing.Short() {
		n = 10
	}
	for i := 0; i < n; i++ {
		sp := Gen(42, i, gopts)
		if _, err := SparseCrossCheck(sp); err != nil {
			t.Fatalf("corpus[%d]: %v", i, err)
		}
	}
}

// TestSparseCrossCheckRejectsKills pins the kill-plan guard: recovery
// runs shrink the communicator, so their layouts are not comparable.
//
// Cluster specs are rejected too: digest tracking is single-node, and
// the cross-check used to run a cluster spec as one node of Procs
// ranks, panicking on a world root beyond them.
func TestSparseCrossCheckRejectsKills(t *testing.T) {
	for _, sp := range []Spec{
		{Arch: "knl", Kind: "bcast", Algo: "knomial-read:4", Count: 4096,
			Procs: 6, Seed: 7, Faults: "kill=0.4,killop=3,seed=5", Deadline: 2000},
		{Arch: "knl", Kind: "gather", Algo: "throttled:2", Count: 2048,
			Procs: 3, Root: 5, Seed: 7, Nodes: 3, Topo: "fattree", Design: "flat"},
	} {
		if err := sp.Validate(); err != nil {
			t.Fatalf("spec invalid: %v", err)
		}
		if _, err := SparseCrossCheck(sp); err == nil {
			t.Errorf("%s accepted by SparseCrossCheck", sp)
		}
	}
}

// TestSparseDigestsDetectChanges guards against a vacuous cross-check:
// the digests must actually depend on the payload seed, the schedule,
// and the payload size — otherwise "equal digests" would prove nothing.
func TestSparseDigestsDetectChanges(t *testing.T) {
	base := Spec{Arch: "knl", Kind: "allgather", Algo: "bruck", Count: 2048, Procs: 6, Seed: 11}
	ref, err := run(base, false, true)
	if err != nil {
		t.Fatalf("base run: %v", err)
	}
	if len(ref.Digests) != base.Procs {
		t.Fatalf("got %d digests, want %d", len(ref.Digests), base.Procs)
	}
	for name, mutate := range map[string]func(*Spec){
		"seed":  func(s *Spec) { s.Seed = 12 },
		"count": func(s *Spec) { s.Count = 4096 },
		"algo":  func(s *Spec) { s.Algo = "ring-source-read" },
	} {
		sp := base
		mutate(&sp)
		if err := sp.Validate(); err != nil {
			t.Fatalf("%s variant invalid: %v", name, err)
		}
		got, err := run(sp, false, true)
		if err != nil {
			t.Fatalf("%s variant: %v", name, err)
		}
		same := len(got.Digests) == len(ref.Digests)
		if same {
			for r := range got.Digests {
				if got.Digests[r] != ref.Digests[r] {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("%s variant left every rank digest unchanged", name)
		}
	}
}
