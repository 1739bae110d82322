package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestPolyFitRecoversExactQuadratic(t *testing.T) {
	// y = 0.5x² + 2x, through the origin like the paper's latency curves.
	xs := []float64{1, 2, 3, 5, 8, 13}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 0.5*x*x + 2*x
	}
	coefs, err := PolyFit(xs, ys, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(coefs[0], 0.5, 1e-9) || !approxEq(coefs[1], 2, 1e-9) {
		t.Errorf("coefs = %v, want [0.5 2]", coefs)
	}
}

func TestPolyFitWithIntercept(t *testing.T) {
	// y = x² − 3x + 7.
	xs := []float64{-2, -1, 0, 1, 2, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = x*x - 3*x + 7
	}
	coefs, err := PolyFit(xs, ys, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -3, 7}
	for i := range want {
		if !approxEq(coefs[i], want[i], 1e-9) {
			t.Errorf("coefs = %v, want %v", coefs, want)
			break
		}
	}
}

func TestPolyFitLengthMismatch(t *testing.T) {
	if _, err := PolyFit([]float64{1, 2}, []float64{1}, 1, true); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestPolyBasisBadDegreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("degree 0 did not panic")
		}
	}()
	PolyBasis(0, true)
}

// Property: PolyFit on noiseless data from a random quadratic recovers the
// coefficients.
func TestPropertyPolyFitRecovery(t *testing.T) {
	f := func(a8, b8, c8 int8) bool {
		a, b, c := float64(a8)/16, float64(b8)/16, float64(c8)/16
		xs := []float64{-3, -2, -1, 0.5, 1, 2, 3, 4}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = a*x*x + b*x + c
		}
		coefs, err := PolyFit(xs, ys, 2, true)
		if err != nil {
			return false
		}
		return approxEq(coefs[0], a, 1e-7) && approxEq(coefs[1], b, 1e-7) && approxEq(coefs[2], c, 1e-7)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFitBasisTwoVariable(t *testing.T) {
	// The paper's eq. (3) shape: y = (p·u² + q·u + r)·d² + (s·u² + t·u + w)·d.
	truth := []float64{0.3, -0.1, 0.5, 1.2, 0.05, 2.0}
	basis := []BasisFunc{
		func(x []float64) float64 { u, d := x[0], x[1]; return u * u * d * d },
		func(x []float64) float64 { u, d := x[0], x[1]; return u * d * d },
		func(x []float64) float64 { d := x[1]; return d * d },
		func(x []float64) float64 { u, d := x[0], x[1]; return u * u * d },
		func(x []float64) float64 { u, d := x[0], x[1]; return u * d },
		func(x []float64) float64 { d := x[1]; return d },
	}
	var xs [][]float64
	var ys []float64
	for _, u := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
		for _, d := range []float64{1, 2, 4, 8, 16} {
			x := []float64{u, d}
			xs = append(xs, x)
			ys = append(ys, PredictBasis(truth, basis, x))
		}
	}
	coefs, err := FitBasis(xs, ys, basis)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if !approxEq(coefs[i], truth[i], 1e-7) {
			t.Fatalf("coefs = %v, want %v", coefs, truth)
		}
	}
}

func TestFitBasisErrors(t *testing.T) {
	b := PolyBasis(1, true)
	if _, err := FitBasis([][]float64{{1}}, []float64{1, 2}, b); err == nil {
		t.Error("row/response mismatch accepted")
	}
	if _, err := FitBasis([][]float64{{1}}, []float64{1}, nil); err == nil {
		t.Error("empty basis accepted")
	}
	if _, err := FitBasis([][]float64{{1}}, []float64{1}, b); err == nil {
		t.Error("fewer samples than basis functions accepted")
	}
}

func TestPredictBasisMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("coef/basis mismatch did not panic")
		}
	}()
	PredictBasis([]float64{1}, PolyBasis(1, true), []float64{1})
}

func TestLinearThroughOrigin(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{0.7, 1.4, 2.1, 2.8}
	k, err := LinearThroughOrigin(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(k, 0.7, 1e-12) {
		t.Errorf("k = %v, want 0.7 (the paper's Table 3 slope)", k)
	}
}

func TestLinearThroughOriginErrors(t *testing.T) {
	if _, err := LinearThroughOrigin(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := LinearThroughOrigin([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("all-zero xs accepted")
	}
}

func TestR2PerfectAndPoor(t *testing.T) {
	obs := []float64{1, 2, 3, 4}
	if got := R2(obs, obs); got != 1 {
		t.Errorf("R² of perfect fit = %v", got)
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if got := R2(obs, mean); got != 0 {
		t.Errorf("R² of mean predictor = %v, want 0", got)
	}
}

func TestR2ConstantObservations(t *testing.T) {
	obs := []float64{3, 3, 3}
	if got := R2(obs, []float64{3, 3, 3}); got != 1 {
		t.Errorf("R² = %v, want 1", got)
	}
	if got := R2(obs, []float64{3, 3, 4}); got != 0 {
		t.Errorf("R² = %v, want 0", got)
	}
}

func TestRMSE(t *testing.T) {
	if got := RMSE([]float64{1, 2}, []float64{1, 2}); got != 0 {
		t.Errorf("RMSE of perfect fit = %v", got)
	}
	if got := RMSE([]float64{0, 0}, []float64{3, 4}); !approxEq(got, math.Sqrt(12.5), 1e-12) {
		t.Errorf("RMSE = %v", got)
	}
}

// Property: fitted model's predictions achieve R² ≥ any-constant
// predictor's on noisy linear data.
func TestPropertyFitBeatsConstant(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 5))
		n := 20
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
			ys[i] = 3*xs[i] + 1 + (r.Float64() - 0.5)
		}
		coefs, err := PolyFit(xs, ys, 1, true)
		if err != nil {
			return false
		}
		pred := make([]float64, n)
		for i := range pred {
			pred[i] = coefs[0]*xs[i] + coefs[1]
		}
		return R2(ys, pred) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
