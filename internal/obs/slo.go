package obs

import "rtsads/internal/metrics"

// The SLO plane summarizes the paper's guarantee as a live service-level
// view: the guarantee ratio (deadline hits over post-admission terminals,
// the running form of §5's guarantee-ratio metric), deadline-slack
// distributions at admission and completion, and the burn counters that
// say how the margin is being spent (shed tasks, degraded-mode phases).
// Served as JSON from /slo on the debug server; a federated run serves a
// per-shard breakdown plus the federation rollup.

// HistogramSummary is one duration histogram's /slo digest: count, mean
// and interpolated quantiles, in seconds for dashboard friendliness.
type HistogramSummary struct {
	Count       int64   `json:"count"`
	MeanSeconds float64 `json:"mean_seconds"`
	P50Seconds  float64 `json:"p50_seconds"`
	P90Seconds  float64 `json:"p90_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
}

func summarize(h *Histogram) HistogramSummary {
	s := HistogramSummary{Count: h.Count()}
	if s.Count > 0 {
		s.MeanSeconds = h.Sum().Seconds() / float64(s.Count)
		s.P50Seconds = h.Quantile(0.50).Seconds()
		s.P90Seconds = h.Quantile(0.90).Seconds()
		s.P99Seconds = h.Quantile(0.99).Seconds()
	}
	return s
}

// SLOSummary is the /slo payload for one scheduler domain: terminal-state
// accounting, the live guarantee ratio, slack distributions at the two
// ends of the task lifecycle, and overload burn.
type SLOSummary struct {
	// GuaranteeRatioPPM is hits / (hits+missed+expired+lost) in
	// parts-per-million — 1_000_000 means every admitted task that reached
	// a terminal state met its deadline, the paper's guarantee holding
	// live. Zero when nothing terminated yet.
	GuaranteeRatioPPM int64 `json:"guarantee_ratio_ppm"`

	Arrivals int64 `json:"arrivals"`
	Admitted int64 `json:"admitted"`
	Hits     int64 `json:"hits"`
	Missed   int64 `json:"missed"`
	Expired  int64 `json:"expired"`
	Lost     int64 `json:"lost"`

	// Burn counters: margin spent keeping the guarantee.
	Shed           int64 `json:"shed"`
	Bounced        int64 `json:"bounced"`
	Overloads      int64 `json:"overloads"`
	Degradations   int64 `json:"degradations"`
	DegradedPhases int64 `json:"degraded_phases"`
	DegradedNow    bool  `json:"degraded_now"`

	SlackAdmission  HistogramSummary `json:"slack_admission"`
	SlackCompletion HistogramSummary `json:"slack_completion"`
}

// SLOSummary digests the observer's registry into the /slo payload. Nil
// observers return the zero summary.
func (o *Observer) SLOSummary() SLOSummary {
	if o == nil {
		return SLOSummary{}
	}
	return SLOSummary{
		GuaranteeRatioPPM: o.guaranteeRatio.Value(),
		Arrivals:          o.books[metrics.CountTotal].Value(),
		Admitted:          o.books[metrics.CountAdmitted].Value(),
		Hits:              o.books[metrics.CountHits].Value(),
		Missed:            o.books[metrics.CountMissed].Value(),
		Expired:           o.books[metrics.CountPurged].Value(),
		Lost:              o.books[metrics.CountLost].Value(),
		Shed:              o.books[metrics.CountShed].Value(),
		Bounced:           o.books[metrics.CountBounced].Value(),
		Overloads:         o.books[metrics.CountOverloads].Value(),
		Degradations:      o.books[metrics.CountDegradations].Value(),
		DegradedPhases:    o.books[metrics.CountDegradedPhases].Value(),
		DegradedNow:       o.degradedMode.Value() == 1,
		SlackAdmission:    summarize(o.slackAdmission),
		SlackCompletion:   summarize(o.slackCompletion),
	}
}

// Combine folds per-shard summaries into a federation rollup: counters
// sum, the guarantee ratio is recomputed over the summed terminals, and
// the slack digests merge approximately (counts and means combine exactly;
// quantiles take the worst shard's value as the conservative bound, since
// bucket data isn't carried in the digest).
func Combine(shards []SLOSummary) SLOSummary {
	var out SLOSummary
	for _, s := range shards {
		out.Arrivals += s.Arrivals
		out.Admitted += s.Admitted
		out.Hits += s.Hits
		out.Missed += s.Missed
		out.Expired += s.Expired
		out.Lost += s.Lost
		out.Shed += s.Shed
		out.Bounced += s.Bounced
		out.Overloads += s.Overloads
		out.Degradations += s.Degradations
		out.DegradedPhases += s.DegradedPhases
		out.DegradedNow = out.DegradedNow || s.DegradedNow
		out.SlackAdmission = combineHist(out.SlackAdmission, s.SlackAdmission)
		out.SlackCompletion = combineHist(out.SlackCompletion, s.SlackCompletion)
	}
	if done := out.Hits + out.Missed + out.Expired + out.Lost; done > 0 {
		out.GuaranteeRatioPPM = out.Hits * 1_000_000 / done
	}
	return out
}

func combineHist(a, b HistogramSummary) HistogramSummary {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	out := HistogramSummary{
		Count:       a.Count + b.Count,
		MeanSeconds: (a.MeanSeconds*float64(a.Count) + b.MeanSeconds*float64(b.Count)) / float64(a.Count+b.Count),
	}
	// Worst-shard quantile: with only digests to merge, the pessimistic
	// pick cannot understate a tail. For slack, smaller is worse.
	out.P50Seconds = minFloat(a.P50Seconds, b.P50Seconds)
	out.P90Seconds = minFloat(a.P90Seconds, b.P90Seconds)
	out.P99Seconds = minFloat(a.P99Seconds, b.P99Seconds)
	return out
}

func minFloat(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
