package main

import (
	"math"
	"sort"
)

// minBeyond is the "ten samples beyond" rule of the choosing-metrics guide:
// a percentile is only reported when at least this many samples lie above
// it; a request for a higher one is lowered to the highest rank that
// qualifies.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of an
// ascending-sorted sample, lowered to the highest rank that still has
// minBeyond samples beyond it. An empty sample yields 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if lim := n - 1 - minBeyond; idx > lim {
		idx = lim
	}
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method) —
// the rule the PR driver applies to ten runs — so a spread printed here is
// the spread the driver will see. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// rateRung is one rung of a rate ladder: the offered rate and how far the
// measured guarantee ratio sits above (margin >= 1) or below (< 1) the
// latency limit. A rung with a failed repetition (an error, or a backlog
// not drained when the settle timeout sealed the shards) has margin 0.
type rateRung struct {
	rate   float64 // offered tasks per wall second
	margin float64 // guarantee_ratio / (0.90 × simulated reference ratio)
}

// sustainedRate returns the highest offered rate that still meets the
// limit: rungs must be in ascending rate order; between the last passing
// rung and the first failing one above it the crossing is interpolated
// log-linearly in rate, and the answer is clamped to the ladder's ends
// (every rung passes: the top rate; the lowest rung already fails: the
// bottom rate).
func sustainedRate(rungs []rateRung) float64 {
	if len(rungs) == 0 {
		return 0
	}
	if rungs[0].margin < 1 {
		return rungs[0].rate
	}
	for i := 0; i+1 < len(rungs); i++ {
		lo, hi := rungs[i], rungs[i+1]
		if hi.margin >= 1 {
			continue
		}
		frac := (lo.margin - 1) / (lo.margin - hi.margin)
		return math.Exp(math.Log(lo.rate) + frac*(math.Log(hi.rate)-math.Log(lo.rate)))
	}
	return rungs[len(rungs)-1].rate
}
