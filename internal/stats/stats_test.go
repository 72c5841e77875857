package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLMRecoversExponential(t *testing.T) {
	// y = a·(1 − e^{−b·x}) — genuinely nonlinear in parameters.
	f := func(p []float64, x float64) float64 { return p[0] * (1 - math.Exp(-p[1]*x)) }
	truth := []float64{5.0, 0.7}
	var x, y []float64
	for v := 0.5; v <= 10; v += 0.5 {
		x = append(x, v)
		y = append(y, f(truth, v))
	}
	p, ssr, err := LevenbergMarquardt(f, x, y, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if ssr > 1e-10 {
		t.Fatalf("ssr = %g", ssr)
	}
	if !almost(p[0], truth[0], 1e-4) || !almost(p[1], truth[1], 1e-4) {
		t.Fatalf("params = %v, want %v", p, truth)
	}
}

func TestLMGammaShapedFit(t *testing.T) {
	// The model package fits γ(c) = a + b·c + d·c² — verify LM recovers
	// it from noisy samples.
	f := func(p []float64, c float64) float64 { return p[0] + p[1]*c + p[2]*c*c }
	truth := []float64{0, 1.6, 0.1}
	rng := rand.New(rand.NewSource(3))
	var x, y []float64
	for c := 2.0; c <= 64; c *= 2 {
		x = append(x, c)
		y = append(y, f(truth, c)*(1+rng.NormFloat64()*0.01))
	}
	p, _, err := LevenbergMarquardt(f, x, y, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(p[2], 0.1, 0.01) {
		t.Fatalf("quadratic term = %g, want ~0.1", p[2])
	}
}

func TestLMFewerSamplesThanParams(t *testing.T) {
	f := func(p []float64, x float64) float64 { return p[0] + p[1]*x + p[2]*x*x }
	if _, _, err := LevenbergMarquardt(f, []float64{1, 2}, []float64{1, 2}, []float64{0, 0, 0}); err == nil {
		t.Fatal("expected error")
	}
}

func TestRelErr(t *testing.T) {
	if RelErr(100, 110) > 0.1+1e-12 {
		t.Fatal("RelErr(100,110) should be ~0.0909")
	}
	if RelErr(0, 0) != 0 {
		t.Fatal("RelErr(0,0) should be 0")
	}
	f := func(a, b float64) bool {
		return RelErr(a, b) == RelErr(b, a) && RelErr(a, b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSolveSingular(t *testing.T) {
	if _, err := solve([][]float64{{1, 2}, {2, 4}}, []float64{1, 2}); err == nil {
		t.Fatal("singular matrix should fail")
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
}

// Non-finite samples must be rejected up front by the fitter: a
// single NaN would otherwise flow through the normal equations and
// come back as NaN coefficients with a nil error.
func TestFittersRejectNonFinite(t *testing.T) {
	bad := [][]float64{
		{1, math.NaN(), 3},
		{1, math.Inf(1), 3},
		{1, math.Inf(-1), 3},
	}
	good := []float64{1, 2, 3}
	lin := func(p []float64, x float64) float64 { return p[0] + p[1]*x }
	for _, b := range bad {
		if _, _, err := LevenbergMarquardt(lin, b, good, []float64{0, 1}); err == nil {
			t.Errorf("LM(x=%v) accepted non-finite x", b)
		}
		if _, _, err := LevenbergMarquardt(lin, good, b, []float64{0, 1}); err == nil {
			t.Errorf("LM(y=%v) accepted non-finite y", b)
		}
	}
	if _, _, err := LevenbergMarquardt(lin, good, good, []float64{math.NaN(), 1}); err == nil {
		t.Error("LM accepted a NaN start parameter")
	}
}

// A model that explodes at the start point must fail loudly, not
// return p0 with a NaN SSR and a nil error.
func TestLMNonFiniteModel(t *testing.T) {
	blowup := func(p []float64, x float64) float64 { return math.Log(p[0]) } // p0[0] = -1 -> NaN
	_, _, err := LevenbergMarquardt(blowup, []float64{1, 2}, []float64{1, 2}, []float64{-1})
	if err == nil {
		t.Fatal("LM returned nil error for a model that is NaN at p0")
	}
}
