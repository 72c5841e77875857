package model

// Predictor evaluates the closed-form algorithm costs of §IV–§V for one
// architecture and process count.
type Predictor struct {
	P     Params
	Sm    SmCosts
	Procs int
	// Agg is the node's aggregate copy bandwidth in bytes/us (the
	// ceiling extension; 0 disables it).
	Agg float64
	// Memcpy is the local memcpy per-byte cost in us (for T_memcpy and
	// Bruck's reshuffles).
	Memcpy float64
}

// NewPredictor builds a predictor from estimated parameters, measured
// control-collective costs and the profile's bandwidth numbers.
func NewPredictor(p Params, procs int) *Predictor {
	return &Predictor{
		P:      p,
		Sm:     MeasureSm(p.Arch, procs),
		Procs:  procs,
		Agg:    p.Arch.AggBandwidth(),
		Memcpy: p.Arch.MemCopyBeta(),
	}
}

// effBeta returns the effective per-byte copy time when m transfers copy
// concurrently.
func (pr *Predictor) effBeta(m float64) float64 {
	b := pr.P.Beta
	if pr.Agg > 0 && m > 1 {
		if shared := m / pr.Agg; shared > b {
			return shared
		}
	}
	return b
}

// lockTerm is the per-transfer page cost under concurrency c. Only the
// mm-lock acquire portion of l inflates with γ; pinning stays flat —
// exactly what the kernel's ftrace breakdown (Fig 4) shows.
func (pr *Predictor) lockTerm(eta int64, c int) float64 {
	lf := pr.P.Arch.LockFrac
	return pr.P.L * (lf*pr.P.Gamma(c) + (1 - lf)) * pr.P.Pages(eta)
}

// mixFactor is the average inter-socket multiplier over the peers of a
// one-to-all / all-to-one (or read-from-everyone) pattern rooted on
// socket 0: peers on the other socket pay the interconnect penalty, on
// top of whatever rate the shared memory system grants.
func (pr *Predictor) mixFactor() float64 {
	a := pr.P.Arch
	if a.Sockets == 1 || pr.Procs <= 1 {
		return 1
	}
	perSocket := (pr.Procs + a.Sockets - 1) / a.Sockets
	inter := float64(pr.Procs-perSocket) / float64(pr.Procs-1)
	return 1 + inter*(a.InterSocketBW-1)
}

// copyConcurrency solves the duty-cycle fixed point for a phase where c
// transfers of eta bytes contend on one source: each op spends
// lock = l·γ(c)·pages and copy = η·β_eff, so the expected number of
// concurrent copiers is m = c·copy/(copy+lock), and β_eff depends on m.
func (pr *Predictor) copyConcurrency(eta int64, c int) float64 {
	if c <= 1 {
		return 1
	}
	lock := pr.lockTerm(eta, c)
	m := float64(c)
	for i := 0; i < 20; i++ {
		cp := float64(eta) * pr.effBeta(m)
		nm := float64(c) * cp / (cp + lock)
		if nm < 1 {
			nm = 1
		}
		if diff := nm - m; diff < 1e-6 && diff > -1e-6 {
			break
		}
		m = nm
	}
	return m
}

// contended is the cost of one transfer of eta bytes racing with c−1
// others on the same source: α + η·β_eff·mix + lockTerm. The source is
// the root of a one-to-all pattern, so the copy rate is socket-mixed.
func (pr *Predictor) contended(eta int64, c int) float64 {
	m := pr.copyConcurrency(eta, c)
	return pr.P.Alpha + float64(eta)*pr.effBeta(m)*pr.mixFactor() + pr.lockTerm(eta, c)
}

// uncontended is a single transfer of a one-to-all/all-to-one pattern
// with no concurrency at all (socket-mixed copy rate, no γ inflation).
func (pr *Predictor) uncontended(eta int64) float64 {
	return pr.P.Alpha + float64(eta)*pr.P.Beta*pr.mixFactor() + pr.P.L*pr.P.Pages(eta)
}

// concurrent is one transfer in a phase of m transfers hitting *distinct*
// sources (no lock contention, shared bandwidth only).
func (pr *Predictor) concurrent(eta int64, m int) float64 {
	return pr.P.Alpha + float64(eta)*pr.effBeta(float64(m)) + pr.P.L*pr.P.Pages(eta)
}

// memcpy is the local-copy term T_memcpy.
func (pr *Predictor) memcpy(eta int64) float64 { return float64(eta) * pr.Memcpy }

// ScatterParallelRead: T^sm_bcast + α + ηβ + l·γ_{p−1}·⌈η/s⌉ + T^sm_gather.
func (pr *Predictor) ScatterParallelRead(eta int64) float64 {
	return pr.Sm.Bcast + pr.contended(eta, pr.Procs-1) + pr.Sm.Gather
}

// ScatterSeqWrite: T_memcpy + T^sm_gather + (p−1)(α + ηβ + l⌈η/s⌉) + T^sm_bcast.
func (pr *Predictor) ScatterSeqWrite(eta int64) float64 {
	p := float64(pr.Procs)
	return pr.memcpy(eta) + pr.Sm.Gather + (p-1)*pr.uncontended(eta) + pr.Sm.Bcast
}

// ScatterThrottled: T^sm_bcast + ⌈(p−1)/k⌉(α + ηβ + l·γ_k·⌈η/s⌉).
func (pr *Predictor) ScatterThrottled(eta int64, k int) float64 {
	steps := float64((pr.Procs - 2 + k) / k) // ⌈(p−1)/k⌉
	return pr.Sm.Bcast + steps*pr.contended(eta, k) + pr.Sm.Notify
}

// GatherParallelWrite mirrors ScatterParallelRead.
func (pr *Predictor) GatherParallelWrite(eta int64) float64 {
	return pr.ScatterParallelRead(eta)
}

// GatherSeqRead mirrors ScatterSeqWrite.
func (pr *Predictor) GatherSeqRead(eta int64) float64 { return pr.ScatterSeqWrite(eta) }

// GatherThrottled mirrors ScatterThrottled.
func (pr *Predictor) GatherThrottled(eta int64, k int) float64 {
	return pr.ScatterThrottled(eta, k)
}

// AlltoallPairwise: T^sm_allgather + (p−1)(α + ηβ_eff(p) + l⌈η/s⌉) + T_barrier.
func (pr *Predictor) AlltoallPairwise(eta int64) float64 {
	p := pr.Procs
	return pr.Sm.Allgather + pr.memcpy(eta) + float64(p-1)*pr.concurrent(eta, p) + pr.Sm.Barrier
}

// AllgatherRing: T_memcpy + T^sm_allgather + (p−1)(α + ηβ_eff(p) + l⌈η/s⌉) + T_barrier.
func (pr *Predictor) AllgatherRing(eta int64) float64 {
	p := pr.Procs
	return pr.memcpy(eta) + pr.Sm.Allgather + float64(p-1)*pr.concurrent(eta, p) + pr.Sm.Barrier
}

// AllgatherRecursiveDoubling: T_memcpy + T^sm_allgather + lg p·α +
// (p−1)(ηβ_eff + l⌈η/s⌉) + T_barrier (power-of-two form).
func (pr *Predictor) AllgatherRecursiveDoubling(eta int64) float64 {
	p := pr.Procs
	steps := 0
	for v := 1; v < p; v <<= 1 {
		steps++
	}
	perByte := pr.effBeta(float64(p))
	return pr.memcpy(eta) + pr.Sm.Allgather + float64(steps)*pr.P.Alpha +
		float64(p-1)*(float64(eta)*perByte+pr.P.L*pr.P.Pages(eta)) + pr.Sm.Barrier
}

// AllgatherBruck: T^sm_allgather + lg p·α + (p−1)(2ηβ + l⌈η/s⌉) + T_barrier
// (the extra ηβ term is the final rotation).
func (pr *Predictor) AllgatherBruck(eta int64) float64 {
	p := pr.Procs
	steps := 0
	for v := 1; v < p; v <<= 1 {
		steps++
	}
	perByte := pr.effBeta(float64(p))
	return pr.memcpy(eta) + pr.Sm.Allgather + float64(steps)*pr.P.Alpha +
		float64(p-1)*(float64(eta)*(perByte+pr.Memcpy)+pr.P.L*pr.P.Pages(eta)) + pr.Sm.Barrier
}

// BcastDirectRead: T^sm_bcast + α + ηβ + l·γ_{p−1}·⌈η/s⌉ + T^sm_gather.
func (pr *Predictor) BcastDirectRead(eta int64) float64 {
	return pr.Sm.Bcast + pr.contended(eta, pr.Procs-1) + pr.Sm.Gather
}

// BcastDirectWrite: T^sm_gather + (p−1)(α + ηβ + l⌈η/s⌉) + T^sm_bcast.
func (pr *Predictor) BcastDirectWrite(eta int64) float64 {
	p := float64(pr.Procs)
	return pr.Sm.Gather + (p-1)*pr.uncontended(eta) + pr.Sm.Bcast
}

// BcastKnomial: T^sm_allgather + ⌈log_k p⌉(α + ηβ + l·γ_{k−1}·⌈η/s⌉).
func (pr *Predictor) BcastKnomial(eta int64, k int) float64 {
	steps := 0
	for v := 1; v < pr.Procs; v *= k {
		steps++
	}
	return pr.Sm.Allgather + float64(steps)*(pr.contended(eta, k-1)+pr.Sm.Notify)
}

// BcastScatterAllgather: T^sm_allgather + T_scatter(η/p) + T_allgather(η/p),
// with a sequential-write scatter and a ring allgather over η/p chunks.
func (pr *Predictor) BcastScatterAllgather(eta int64) float64 {
	p := pr.Procs
	chunk := (eta + int64(p) - 1) / int64(p)
	scatter := float64(p-1) * (pr.uncontended(chunk) + pr.Sm.Notify)
	// Ring phase: p−1 steps of chunk-size reads from distinct sources.
	// The ring chases the sequential scatter: early steps are fed-limited
	// (almost no overlap), while after the scatter drains the backlog
	// floods the memory system (up to p−1 concurrent readers). The
	// pipeline-average concurrency (p−1)/2 tracks the simulated cost
	// within ~20% across the sweep.
	ring := float64(p-1) * (pr.concurrent(chunk, (p-1)/2) + pr.Sm.Notify)
	return pr.Sm.Allgather + scatter + ring + pr.Sm.Barrier
}

// combine is the local elementwise-combine cost for eta bytes.
func (pr *Predictor) combine(eta int64) float64 { return float64(eta) * pr.Memcpy }

// ReduceFlat: T^sm_gather + (p−1)(α + ηβ + l⌈η/s⌉ + ηm) + T^sm_bcast,
// where ηm is the root's per-child combine.
func (pr *Predictor) ReduceFlat(eta int64) float64 {
	p := float64(pr.Procs)
	return pr.Sm.Gather + pr.memcpy(eta) + (p-1)*(pr.uncontended(eta)+pr.combine(eta)) + pr.Sm.Bcast
}

// ReduceParallelWrite: the γ_{p−1} staging write plus the root's serial
// combine over p−1 slots.
func (pr *Predictor) ReduceParallelWrite(eta int64) float64 {
	p := float64(pr.Procs)
	return pr.Sm.Bcast + pr.memcpy(eta) + pr.contended(eta, pr.Procs-1) +
		(p-1)*pr.combine(eta) + pr.Sm.Gather
}

// ReduceKnomial: a base-k reduction tree; the critical path serializes
// up to k−1 child read+combine steps per level over ⌈log_k p⌉ levels
// (which is why deep trees win: (k−1)·log_k p is minimized at k=2).
func (pr *Predictor) ReduceKnomial(eta int64, k int) float64 {
	levels := 0
	for v := 1; v < pr.Procs; v *= k {
		levels++
	}
	perChild := pr.P.Alpha + float64(eta)*pr.P.Beta + pr.P.L*pr.P.Pages(eta) + pr.combine(eta) + pr.Sm.Notify
	return pr.Sm.Allgather + 2*pr.memcpy(eta) + float64(levels*(k-1))*perChild + pr.Sm.Bcast
}
