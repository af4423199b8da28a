package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0..1) of v by linear interpolation
// between order statistics. v need not be sorted and is not modified.
// An empty v answers 0.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantileSorted(s, p)
}

func quantileSorted(s []float64, p float64) float64 {
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// requestChunk is how many consecutive requests share one percentile
// estimate: enough that ten samples lie beyond its p99.
const requestChunk = 1000

// chunkedQuantile cuts v, in order, into chunks of requestChunk samples
// (a short tail joins the last chunk), takes each chunk's p-quantile,
// and returns the median of those. With less than two chunks' worth it
// is the plain quantile.
func chunkedQuantile(v []float64, p float64) float64 {
	chunks := len(v) / requestChunk
	if chunks < 2 {
		return quantile(v, p)
	}
	qs := make([]float64, 0, chunks)
	for i := 0; i < chunks; i++ {
		end := (i + 1) * requestChunk
		if i == chunks-1 {
			end = len(v)
		}
		qs = append(qs, quantile(v[i*requestChunk:end], p))
	}
	return median(qs)
}

// quartileSpread is the distance between the first and third quartile
// of v as a share of its median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (the "exclusive" method), which is
// how the repeatability rule of the benchmark contract is stated.
func quartileSpread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		// Exclusive method: 1-based position k*(n+1)/4, the index
		// clamped before the interpolation weight is taken, exactly
		// as CPython does it (so tiny n extrapolates the same way).
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := quantileSorted(s, 0.5)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// share is a/b, or 0 when b is 0.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// splitmix is the seeded generator every workload input is drawn from:
// integer-only, so a seed means the same inputs on every platform.
type splitmix struct{ x uint64 }

func (r *splitmix) next() uint64 {
	r.x += 0x9E3779B97F4A7C15
	z := r.x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1 (Fisher-Yates).
func (r *splitmix) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
