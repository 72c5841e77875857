// Package workload generates the synthetic XSEDE-style job trace behind
// the paper's motivation (Fig 1): across three years of cluster usage,
// jobs using one or a few nodes dominate both the submission count and
// the total CPU hours consumed — which is why intra-node collective
// performance matters.
//
// The generator draws job node-counts from a discretized log-normal
// (small jobs overwhelmingly common, a long thin tail of capability
// runs), walltimes from a size-correlated log-normal, and buckets the
// results the way the XDMoD plots the paper cites do.
package workload

import (
	"math"
	"math/rand"
)

// The trace's machine and job-size distribution.
const (
	coresPerNode = 28
	nodesMu      = 0.35 // log-normal location of node count
	nodesSigma   = 1.1  // log-normal scale of node count
)

// Job is one submitted batch job.
type Job struct {
	Nodes int
	Hours float64
}

// CPUHours returns nodes × cores × walltime.
func (j Job) CPUHours() float64 { return float64(j.Nodes*coresPerNode) * j.Hours }

// Config tunes the synthetic trace.
type Config struct {
	Jobs     int   // number of jobs; 0 = 1e6
	Seed     int64 // RNG seed
	MaxNodes int   // 0 = 4096
}

func (c Config) withDefaults() Config {
	if c.Jobs == 0 {
		c.Jobs = 1_000_000
	}
	if c.MaxNodes == 0 {
		c.MaxNodes = 4096
	}
	return c
}

// Generate produces the synthetic trace.
func Generate(cfg Config) []Job {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	jobs := make([]Job, cfg.Jobs)
	for i := range jobs {
		n := int(math.Exp(nodesMu + nodesSigma*rng.NormFloat64()))
		if n < 1 {
			n = 1
		}
		if n > cfg.MaxNodes {
			n = cfg.MaxNodes
		}
		// Bigger jobs run somewhat longer, with heavy dispersion.
		hours := math.Exp(0.5+0.25*math.Log(float64(n))+0.9*rng.NormFloat64()) / 2
		if hours > 48 {
			hours = 48
		}
		jobs[i] = Job{Nodes: n, Hours: hours}
	}
	return jobs
}

// Buckets are the node-count bins the XDMoD plots use.
var Buckets = []struct {
	Label    string
	Min, Max int
}{
	{"1", 1, 1},
	{"2", 2, 2},
	{"3-4", 3, 4},
	{"5-8", 5, 8},
	{"9-16", 9, 16},
	{"17-32", 17, 32},
	{"33-64", 33, 64},
	{"65-128", 65, 128},
	{"129+", 129, 1 << 30},
}

// Histogram summarizes a trace into the Fig 1 series: job counts and CPU
// hours per node-count bucket.
type Histogram struct {
	Labels   []string
	JobCount []int
	CPUHours []float64
}

// Summarize buckets the jobs.
func Summarize(jobs []Job) Histogram {
	h := Histogram{}
	counts := make([]int, len(Buckets))
	hours := make([]float64, len(Buckets))
	for _, j := range jobs {
		for bi, b := range Buckets {
			if j.Nodes >= b.Min && j.Nodes <= b.Max {
				counts[bi]++
				hours[bi] += j.CPUHours()
				break
			}
		}
	}
	for bi, b := range Buckets {
		h.Labels = append(h.Labels, b.Label)
		h.JobCount = append(h.JobCount, counts[bi])
		h.CPUHours = append(h.CPUHours, hours[bi])
	}
	return h
}

// SmallJobShare returns the fraction of jobs and of CPU hours consumed
// by jobs of at most maxNodes nodes (the paper's "jobs with one or a few
// nodes (≤9) account for the lion's share" claim).
func SmallJobShare(jobs []Job, maxNodes int) (jobFrac, hourFrac float64) {
	var nSmall int
	var hSmall, hTotal float64
	for _, j := range jobs {
		h := j.CPUHours()
		hTotal += h
		if j.Nodes <= maxNodes {
			nSmall++
			hSmall += h
		}
	}
	if len(jobs) == 0 || hTotal == 0 {
		return 0, 0
	}
	return float64(nSmall) / float64(len(jobs)), hSmall / hTotal
}
