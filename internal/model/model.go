// Package model implements the paper's analytical cost model (§II) and
// its experimental calibration:
//
//   - Estimate recovers α (startup), l (per-page lock+pin) and β
//     (per-byte copy) by the Table III procedure — issuing CMA calls with
//     truncated iovec lengths so that individual kernel phases execute in
//     isolation — against the simulated kernel.
//   - MeasureGamma samples the contention factor γ(c) by timing the
//     lock phase under concurrency (Fig 5), and FitGamma fits the
//     parametric curve with Levenberg–Marquardt NLLS, as the paper does.
//   - Predictor evaluates the closed-form cost of every collective
//     algorithm (the T_... equations of §IV–§V).
//
// One extension over the paper's formulas: transfers whose copy phases
// genuinely overlap (pairwise exchanges, ring allgathers) are charged an
// effective per-byte time max(β, m/AggBandwidth), where m is the
// expected number of concurrent copiers — the bandwidth ceiling the
// simulated kernel implements. Contended one-to-all phases spend most of
// their time in the serialized lock, so their copy overlap (and hence m)
// is computed by a fixed point of the copy-duty-cycle equation.
package model

import (
	"fmt"

	"camc/internal/arch"
	"camc/internal/kernel"
	"camc/internal/mpi"
	"camc/internal/sim"
	"camc/internal/stats"
)

// Params holds the estimated cost-model parameters for one architecture
// (the paper's Table IV).
type Params struct {
	Arch     *arch.Profile
	Alpha    float64 // us
	Beta     float64 // us per byte
	L        float64 // us per page
	PageSize int     // bytes (known, not estimated)

	// GammaCoef are the fitted coefficients of γ(c) ≈ g0 + g1·c + g2·c²
	// (+ jump·max(0, c−boundary) when the architecture has a socket
	// boundary). Nil until FitGamma runs; Gamma falls back to the
	// profile curve then.
	GammaCoef []float64
	GammaJump float64
	Boundary  int
}

// Gamma evaluates the fitted contention factor (or the profile's curve
// when no fit has been performed).
func (p *Params) Gamma(c int) float64 {
	if c <= 1 {
		return 1
	}
	if p.GammaCoef == nil {
		return p.Arch.Gamma(c)
	}
	fc := float64(c)
	g := p.GammaCoef[0] + p.GammaCoef[1]*fc + p.GammaCoef[2]*fc*fc
	if p.Boundary > 0 && c > p.Boundary {
		g += p.GammaJump * float64(c-p.Boundary)
	}
	if g < 1 {
		g = 1
	}
	return g
}

// Pages returns ⌈n/s⌉ for the estimated page size.
func (p *Params) Pages(n int64) float64 {
	if n <= 0 {
		return 0
	}
	return float64((n + int64(p.PageSize) - 1) / int64(p.PageSize))
}

// StepTimes holds the Table III step-isolation measurements.
type StepTimes struct {
	T1 float64 // syscall only            (liovcnt=0, riovcnt=0)
	T2 float64 // + access check          (liovcnt=0, riovcnt=1B)
	T3 float64 // + lock+pin N pages      (liovcnt=0, riovcnt=N pages)
	T4 float64 // + copy N pages          (liovcnt=N, riovcnt=N pages)
	N  int     // pages used
}

// MeasureSteps runs the four Table III experiments on a fresh simulated
// node of the architecture.
func MeasureSteps(a *arch.Profile, pages int) StepTimes {
	s := sim.New()
	node := kernel.NewNode(s, a)
	node.CopyData = false
	src := node.NewProcess(1 << 34)
	dst := node.NewProcess(1 << 34)
	size := int64(pages) * int64(a.PageSize)
	sa := src.Alloc(size)
	da := dst.Alloc(size)
	st := StepTimes{N: pages}
	s.Spawn("probe", func(p *sim.Proc) {
		bd, err := dst.VMReadPartial(p, da, src, sa, 0, 0)
		if err != nil {
			panic(err)
		}
		st.T1 = bd.Total()
		bd, err = dst.VMReadPartial(p, da, src, sa, 0, 1)
		if err != nil {
			panic(err)
		}
		st.T2 = bd.Total()
		bd, err = dst.VMReadPartial(p, da, src, sa, 0, size)
		if err != nil {
			panic(err)
		}
		st.T3 = bd.Total()
		bd, err = dst.VMReadPartial(p, da, src, sa, size, size)
		if err != nil {
			panic(err)
		}
		st.T4 = bd.Total()
	})
	if err := s.Run(); err != nil {
		panic(err)
	}
	return st
}

// Estimate derives the model parameters from the step measurements:
// l = (T3−T2)/(N−1) (the T2 probe already locked one page),
// β = (T4−T3)/(N·s), and α = T2 − l. The paper states α = T2 directly;
// subtracting the one page T2 pinned removes a small systematic bias
// (≈l/α, which is 17% on KNL and 71% on Power8 where pages are large).
func Estimate(a *arch.Profile) Params {
	st := MeasureSteps(a, 400)
	n := float64(st.N)
	l := (st.T3 - st.T2) / (n - 1)
	return Params{
		Arch:     a,
		Alpha:    st.T2 - l,
		L:        l,
		Beta:     (st.T4 - st.T3) / (n * float64(a.PageSize)),
		PageSize: a.PageSize,
		Boundary: a.SocketBoundary,
	}
}

// GammaSample is one measured contention-factor point.
type GammaSample struct {
	Concurrency int
	Pages       int
	Gamma       float64
}

// MeasureGamma times the lock phase of `pages`-page lock-only CMA reads
// issued by c concurrent processes against one source and returns the
// observed inflation over the uncontended per-page lock cost.
func MeasureGamma(a *arch.Profile, pages, c int) GammaSample {
	s := sim.New()
	node := kernel.NewNode(s, a)
	node.CopyData = false
	size := int64(pages) * int64(a.PageSize)
	src := node.NewProcess(1 << 34)
	sa := src.Alloc(size * int64(c))
	locks := make([]float64, c)
	for i := 0; i < c; i++ {
		i := i
		dst := node.NewProcess(1 << 30)
		da := dst.Alloc(size)
		s.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			bd, err := dst.VMReadPartial(p, da, src, sa+kernel.Addr(int64(i)*size), 0, size)
			if err != nil {
				panic(err)
			}
			locks[i] = bd.Lock
		})
	}
	if err := s.Run(); err != nil {
		panic(err)
	}
	uncontended := float64(pages) * a.LockPin * a.LockFrac
	return GammaSample{Concurrency: c, Pages: pages, Gamma: stats.Mean(locks) / uncontended}
}

// MeasureGammaCurve samples γ across concurrency levels and page counts
// (the paper uses 10, 50 and 100 pages to show γ is independent of the
// page count).
func MeasureGammaCurve(a *arch.Profile, pageCounts, concurrencies []int) []GammaSample {
	var out []GammaSample
	for _, pg := range pageCounts {
		for _, c := range concurrencies {
			out = append(out, MeasureGamma(a, pg, c))
		}
	}
	return out
}

// FitGamma fits γ(c) = g0 + g1·c + g2·c² (+ jump past the socket
// boundary when the architecture has one) to the samples with
// Levenberg–Marquardt, mirroring the paper's NLLS fit (Fig 5). It
// updates p in place and returns the final SSR.
func (p *Params) FitGamma(samples []GammaSample) (float64, error) {
	var x, y []float64
	for _, s := range samples {
		x = append(x, float64(s.Concurrency))
		y = append(y, s.Gamma)
	}
	boundary := float64(p.Arch.SocketBoundary)
	hasJump := p.Arch.SocketBoundary < p.Arch.DefaultProcs
	f := func(par []float64, c float64) float64 {
		g := par[0] + par[1]*c + par[2]*c*c
		if hasJump && c > boundary {
			g += par[3] * (c - boundary)
		}
		return g
	}
	p0 := []float64{1, 0.1, 0.001, 0.1}
	if !hasJump {
		f = func(par []float64, c float64) float64 { return par[0] + par[1]*c + par[2]*c*c }
		p0 = p0[:3]
	}
	fit, ssr, err := stats.LevenbergMarquardt(f, x, y, p0)
	if err != nil {
		return 0, err
	}
	p.GammaCoef = fit[:3]
	if hasJump {
		p.GammaJump = fit[3]
		p.Boundary = p.Arch.SocketBoundary
	} else {
		p.GammaJump = 0
		p.Boundary = 0
	}
	return ssr, nil
}

// SmCosts are the measured shared-memory control-collective costs for a
// given process count (the T^sm terms of the cost model).
type SmCosts struct {
	Bcast     float64
	Gather    float64
	Allgather float64
	Barrier   float64
	Notify    float64 // one 0-byte post + consume
}

// MeasureSm times the control collectives on a p-rank communicator.
func MeasureSm(a *arch.Profile, p int) SmCosts {
	time := func(body func(r *mpi.Rank)) float64 {
		c := mpi.New(mpi.Config{Arch: a, Procs: p, CopyData: false})
		c.Start(body)
		if err := c.Sim.Run(); err != nil {
			panic(err)
		}
		return c.Sim.Now()
	}
	sm := SmCosts{
		Bcast:     time(func(r *mpi.Rank) { r.Bcast64(0, 1) }),
		Gather:    time(func(r *mpi.Rank) { r.Gather64(0, 1) }),
		Allgather: time(func(r *mpi.Rank) { r.Allgather64(1) }),
		Barrier:   time(func(r *mpi.Rank) { r.Barrier() }),
	}
	sm.Notify = time(func(r *mpi.Rank) {
		if r.ID == 0 {
			r.Notify(1 % p)
		} else if r.ID == 1 {
			r.WaitNotify(0)
		}
	})
	return sm
}
