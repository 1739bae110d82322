package stats

import (
	"fmt"
	"math"
)

// BasisFunc maps a predictor vector to one regressor value. A regression
// basis is an ordered set of BasisFuncs; the fitted model is
// y ≈ Σ coef[i]·basis[i](x).
type BasisFunc func(x []float64) float64

// FitBasis performs ordinary least squares of ys on the given basis
// evaluated at xs. Every xs[i] is a predictor vector; all must have the
// same length. It returns the coefficient for each basis function.
func FitBasis(xs [][]float64, ys []float64, basis []BasisFunc) ([]float64, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: FitBasis has %d predictor rows but %d responses", len(xs), len(ys))
	}
	if len(basis) == 0 {
		return nil, fmt.Errorf("stats: FitBasis needs at least one basis function")
	}
	if len(xs) < len(basis) {
		return nil, fmt.Errorf("stats: FitBasis needs ≥%d samples for %d basis functions, got %d",
			len(basis), len(basis), len(xs))
	}
	a := NewMatrix(len(xs), len(basis))
	for i, x := range xs {
		for j, f := range basis {
			a.Set(i, j, f(x))
		}
	}
	return LeastSquares(a, ys)
}

// PredictBasis evaluates a fitted basis model at x.
func PredictBasis(coefs []float64, basis []BasisFunc, x []float64) float64 {
	if len(coefs) != len(basis) {
		panic(fmt.Sprintf("stats: PredictBasis has %d coefficients for %d basis functions", len(coefs), len(basis)))
	}
	var y float64
	for i, f := range basis {
		y += coefs[i] * f(x)
	}
	return y
}

// PolyBasis returns the 1-D monomial basis {x^degree, ..., x, 1} when
// intercept is true, or {x^degree, ..., x} when false (regression through
// the origin). Coefficients come back highest degree first, matching the
// paper's a·d² + b·d form.
func PolyBasis(degree int, intercept bool) []BasisFunc {
	if degree < 1 {
		panic("stats: PolyBasis degree must be ≥ 1")
	}
	var basis []BasisFunc
	for p := degree; p >= 1; p-- {
		p := p
		basis = append(basis, func(x []float64) float64 { return math.Pow(x[0], float64(p)) })
	}
	if intercept {
		basis = append(basis, func(x []float64) float64 { return 1 })
	}
	return basis
}

// PolyFit fits a 1-D polynomial of the given degree. Coefficients are
// highest degree first; when intercept is false the constant term is
// forced to zero (the paper's latency curves pass through the origin:
// zero data items cost zero time).
func PolyFit(xs, ys []float64, degree int, intercept bool) ([]float64, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: PolyFit has %d xs but %d ys", len(xs), len(ys))
	}
	rows := make([][]float64, len(xs))
	for i, x := range xs {
		rows[i] = []float64{x}
	}
	return FitBasis(rows, ys, PolyBasis(degree, intercept))
}

// LinearThroughOrigin fits y = k·x, returning the slope that minimizes
// squared error: k = Σxy / Σx². The paper's buffer-delay model (eq. 5) is
// a through-origin line in the total periodic workload.
func LinearThroughOrigin(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0, fmt.Errorf("stats: LinearThroughOrigin needs equal non-empty slices, got %d/%d", len(xs), len(ys))
	}
	var sxy, sxx float64
	for i := range xs {
		sxy += xs[i] * ys[i]
		sxx += xs[i] * xs[i]
	}
	if sxx == 0 {
		return 0, ErrSingular
	}
	return sxy / sxx, nil
}

// R2 returns the coefficient of determination of predictions vs
// observations: 1 − SS_res/SS_tot. A constant observation vector yields
// R² = 1 if predictions match exactly and 0 otherwise.
func R2(observed, predicted []float64) float64 {
	if len(observed) != len(predicted) || len(observed) == 0 {
		panic("stats: R2 needs equal non-empty slices")
	}
	m := Mean(observed)
	var ssRes, ssTot float64
	for i := range observed {
		d := observed[i] - predicted[i]
		ssRes += d * d
		t := observed[i] - m
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// RMSE returns the root-mean-square error of predictions vs observations.
func RMSE(observed, predicted []float64) float64 {
	if len(observed) != len(predicted) || len(observed) == 0 {
		panic("stats: RMSE needs equal non-empty slices")
	}
	var ss float64
	for i := range observed {
		d := observed[i] - predicted[i]
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(observed)))
}
