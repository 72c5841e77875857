package workload

import (
	"testing"
	"testing/quick"
)

func TestGenerateCount(t *testing.T) {
	jobs := Generate(Config{Jobs: 10_000, Seed: 1})
	if len(jobs) != 10_000 {
		t.Fatalf("generated %d jobs", len(jobs))
	}
	for _, j := range jobs {
		if j.Nodes < 1 || j.Hours <= 0 || j.CPUHours() != float64(j.Nodes*28)*j.Hours {
			t.Fatalf("bad job %+v", j)
		}
	}
}

func TestSmallJobsDominate(t *testing.T) {
	// The Fig 1 claim: jobs of <= 9 nodes dominate submissions AND total
	// CPU hours on XSEDE-like traces.
	jobs := Generate(Config{Jobs: 200_000, Seed: 42})
	jobFrac, hourFrac := SmallJobShare(jobs, 9)
	if jobFrac < 0.85 {
		t.Fatalf("small-job submission share %.2f, want > 0.85", jobFrac)
	}
	if hourFrac < 0.5 {
		t.Fatalf("small-job CPU-hour share %.2f, want > 0.5", hourFrac)
	}
}

func TestHistogramConserves(t *testing.T) {
	jobs := Generate(Config{Jobs: 50_000, Seed: 7})
	h := Summarize(jobs)
	var n int
	var hours, total float64
	for i := range h.Labels {
		n += h.JobCount[i]
		hours += h.CPUHours[i]
	}
	for _, j := range jobs {
		total += j.CPUHours()
	}
	if n != len(jobs) {
		t.Fatalf("histogram drops jobs: %d vs %d", n, len(jobs))
	}
	if diff := hours - total; diff > 1e-6*total || diff < -1e-6*total {
		t.Fatalf("histogram CPU hours %.0f vs trace %.0f", hours, total)
	}
}

func TestHistogramMonotoneDecline(t *testing.T) {
	// Job counts decline across the first few buckets (the published
	// shape).
	h := Summarize(Generate(Config{Jobs: 300_000, Seed: 3}))
	for i := 0; i+1 < 4; i++ {
		if h.JobCount[i] < h.JobCount[i+1] {
			t.Fatalf("bucket %s (%d) below bucket %s (%d)", h.Labels[i], h.JobCount[i], h.Labels[i+1], h.JobCount[i+1])
		}
	}
}

func TestDeterministicBySeed(t *testing.T) {
	f := func(seed int64) bool {
		a := Generate(Config{Jobs: 500, Seed: seed})
		b := Generate(Config{Jobs: 500, Seed: seed})
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestSmallJobShareEdgeCases(t *testing.T) {
	if j, h := SmallJobShare(nil, 9); j != 0 || h != 0 {
		t.Fatal("empty trace should return zeros")
	}
}

func TestMaxNodesClamp(t *testing.T) {
	jobs := Generate(Config{Jobs: 100_000, Seed: 9, MaxNodes: 64})
	for _, j := range jobs {
		if j.Nodes > 64 {
			t.Fatalf("node count %d above clamp", j.Nodes)
		}
	}
}
