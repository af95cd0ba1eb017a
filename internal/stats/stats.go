// Package stats provides the small statistical toolkit used by the
// experiment harness: summary statistics, success-rate intervals and
// log-log slope fits for time-complexity measurements.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Summary holds basic descriptive statistics of a sample.
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Median float64 `json:"median"`
	P10    float64 `json:"p10"`
	P90    float64 `json:"p90"`
}

// Summarize computes descriptive statistics. An empty sample yields zeros.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	n := float64(len(xs))
	s.Mean = sum / n
	// Two-pass variance: summing squared deviations from the mean avoids
	// the catastrophic cancellation of E[x^2] - mean^2, which collapses Std
	// to 0 for large-magnitude, low-variance samples (step counts of 10^7+
	// square to the edge of float64 precision).
	var sq float64
	for _, x := range sorted {
		d := x - s.Mean
		sq += d * d
	}
	if variance := sq / n; variance > 0 {
		s.Std = math.Sqrt(variance)
	}
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Median = Quantile(sorted, 0.5)
	s.P10 = Quantile(sorted, 0.1)
	s.P90 = Quantile(sorted, 0.9)
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of a sorted sample using
// linear interpolation.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Rate is a success proportion with a Wilson 95% confidence interval.
type Rate struct {
	Successes int     `json:"successes"`
	Trials    int     `json:"trials"`
	P         float64 `json:"p"`
	Lo        float64 `json:"lo"`
	Hi        float64 `json:"hi"`
}

// NewRate computes the proportion and its Wilson interval.
func NewRate(successes, trials int) Rate {
	r := Rate{Successes: successes, Trials: trials}
	if trials == 0 {
		return r
	}
	const z = 1.96
	n := float64(trials)
	p := float64(successes) / n
	denom := 1 + z*z/n
	center := (p + z*z/(2*n)) / denom
	margin := z * math.Sqrt(p*(1-p)/n+z*z/(4*n*n)) / denom
	r.P = p
	// The Wilson interval always contains p; clamp away floating-point
	// residue at the p = 0 and p = 1 edges.
	r.Lo = math.Min(math.Max(0, center-margin), p)
	r.Hi = math.Max(math.Min(1, center+margin), p)
	return r
}

// String implements fmt.Stringer.
func (r Rate) String() string {
	return fmt.Sprintf("%d/%d = %.3f [%.3f, %.3f]", r.Successes, r.Trials, r.P, r.Lo, r.Hi)
}

// LogLogSlope fits log(y) = a + b*log(x) by least squares and returns the
// exponent b — the empirical polynomial degree of y(x).
func LogLogSlope(xs, ys []float64) (slope float64, err error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, fmt.Errorf("stats: need matching samples of size >= 2, got %d, %d", len(xs), len(ys))
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return 0, errors.New("stats: log-log fit needs positive values")
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	n := float64(len(xs))
	denom := n*sxx - sx*sx
	if denom == 0 {
		return 0, errors.New("stats: degenerate x values")
	}
	return (n*sxy - sx*sy) / denom, nil
}

// KS returns the two-sample Kolmogorov-Smirnov statistic D, the largest
// gap between the empirical distribution functions of xs and ys, and its
// asymptotic p-value under the hypothesis that both samples come from one
// continuous law. Ties, as in step counts, only make the test
// conservative. Both samples must be non-empty.
func KS(xs, ys []float64) (d, p float64) {
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	sort.Float64s(a)
	sort.Float64s(b)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x := min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		d = max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	ne := float64(len(a)) * float64(len(b)) / float64(len(a)+len(b))
	return d, kolmogorovQ((math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d)
}

// kolmogorovQ is the Kolmogorov distribution's tail
// 2 * sum_{k>=1} (-1)^(k-1) exp(-2 k^2 lambda^2).
func kolmogorovQ(lambda float64) float64 {
	if lambda < 0.2 {
		return 1
	}
	var q float64
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * 2 * math.Exp(-2*float64(k*k)*lambda*lambda)
		q += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	return min(max(q, 0), 1)
}

// TwoProportionZ returns the z statistic of the difference between the
// success rates a/n and b/m under a pooled variance, 0 when both rates
// are 0 or 1.
func TwoProportionZ(a, n, b, m int) float64 {
	pool := float64(a+b) / float64(n+m)
	se := math.Sqrt(pool * (1 - pool) * (1/float64(n) + 1/float64(m)))
	if se == 0 {
		return 0
	}
	return (float64(a)/float64(n) - float64(b)/float64(m)) / se
}
