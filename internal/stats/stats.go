// Package stats provides the small numerical toolbox the model package
// needs: a Levenberg–Marquardt nonlinear least-squares solver (the paper
// fits its contention-factor curves with Marquardt's NLLS algorithm,
// Fig 5), plus the mean and relative error its callers report.
package stats

import (
	"errors"
	"math"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// finite reports whether every value in every slice is a real number.
// LevenbergMarquardt rejects NaN/Inf inputs up front: a single poisoned sample
// would otherwise propagate silently through the normal equations and
// come back as NaN coefficients with a nil error.
func finite(slices ...[]float64) bool {
	for _, s := range slices {
		for _, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

var errNonFinite = errors.New("stats: non-finite (NaN/Inf) input sample")

// solve performs Gaussian elimination with partial pivoting on a copy of
// (A, b).
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-12 {
			return nil, errors.New("stats: singular system")
		}
		m[col], m[piv] = m[piv], m[col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	out := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := m[r][n]
		for c := r + 1; c < n; c++ {
			s -= m[r][c] * out[c]
		}
		out[r] = s / m[r][r]
	}
	return out, nil
}

// Model is a parametric model y = f(params, x) for NLLS fitting.
type Model func(params []float64, x float64) float64

// The Levenberg–Marquardt solver's tuning.
const (
	lmMaxIter = 200
	lmTol     = 1e-10 // relative SSR improvement to declare convergence
	lmLambda0 = 1e-3  // initial damping
)

// LevenbergMarquardt minimizes Σ(y_i − f(p, x_i))² starting from p0 and
// returns the fitted parameters and the final sum of squared residuals.
// The Jacobian is computed by central finite differences.
func LevenbergMarquardt(f Model, x, y, p0 []float64) ([]float64, float64, error) {
	if len(x) != len(y) {
		return nil, 0, errors.New("stats: x/y length mismatch")
	}
	if len(x) < len(p0) {
		return nil, 0, errors.New("stats: fewer samples than parameters")
	}
	if !finite(x, y, p0) {
		return nil, 0, errNonFinite
	}
	p := append([]float64(nil), p0...)
	np := len(p)
	lambda := lmLambda0

	ssr := func(params []float64) float64 {
		var s float64
		for i := range x {
			d := y[i] - f(params, x[i])
			s += d * d
		}
		return s
	}
	cur := ssr(p)
	if math.IsNaN(cur) || math.IsInf(cur, 0) {
		// The model itself blew up at the start point; every trial step
		// would compare against NaN and "never improve", so fail loudly.
		return nil, 0, errors.New("stats: model produced non-finite residuals at p0")
	}

	for iter := 0; iter < lmMaxIter; iter++ {
		// Jacobian (len(x) × np) and residuals.
		jac := make([][]float64, len(x))
		res := make([]float64, len(x))
		for i := range x {
			jac[i] = make([]float64, np)
			res[i] = y[i] - f(p, x[i])
			for j := 0; j < np; j++ {
				h := 1e-6 * (math.Abs(p[j]) + 1e-6)
				pj := p[j]
				p[j] = pj + h
				fp := f(p, x[i])
				p[j] = pj - h
				fm := f(p, x[i])
				p[j] = pj
				jac[i][j] = (fp - fm) / (2 * h)
			}
		}
		// Normal equations (JᵀJ + λ·diag(JᵀJ))δ = Jᵀr.
		jtj := make([][]float64, np)
		jtr := make([]float64, np)
		for j := range jtj {
			jtj[j] = make([]float64, np)
		}
		for i := range x {
			for j := 0; j < np; j++ {
				jtr[j] += jac[i][j] * res[i]
				for k := 0; k < np; k++ {
					jtj[j][k] += jac[i][j] * jac[i][k]
				}
			}
		}
		improved := false
		for attempt := 0; attempt < 25; attempt++ {
			damped := make([][]float64, np)
			for j := range damped {
				damped[j] = append([]float64(nil), jtj[j]...)
				damped[j][j] += lambda * (jtj[j][j] + 1e-12)
			}
			delta, err := solve(damped, jtr)
			if err != nil {
				lambda *= 10
				continue
			}
			trial := make([]float64, np)
			for j := range trial {
				trial[j] = p[j] + delta[j]
			}
			tssr := ssr(trial)
			if tssr < cur {
				rel := (cur - tssr) / (cur + 1e-30)
				p = trial
				cur = tssr
				lambda = math.Max(lambda/10, 1e-12)
				improved = true
				if rel < lmTol {
					return p, cur, nil
				}
				break
			}
			lambda *= 10
		}
		if !improved {
			break // stuck: damping exploded without progress
		}
	}
	return p, cur, nil
}

// RelErr returns |a−b| / max(|a|,|b|,eps): a symmetric relative error.
func RelErr(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den < 1e-30 {
		return 0
	}
	return math.Abs(a-b) / den
}
