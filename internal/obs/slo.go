package obs

import "rtsads/internal/metrics"

// The SLO plane summarizes the paper's guarantee as a live service-level
// view: the guarantee ratio (deadline hits over post-admission terminals,
// the running form of §5's guarantee-ratio metric), deadline-slack
// distributions at admission and completion, and the burn counters that
// say how the margin is being spent (shed and bounced tasks).
// Served as JSON from /slo on the debug server; a federated run serves a
// per-shard breakdown plus the federation rollup, summarized from the
// shards' summed books and merged slack histograms.

// HistogramSummary is one duration histogram's /slo digest: count, mean
// and quantiles, in seconds for dashboard friendliness. A quantile is the
// upper edge of the bucket holding it, clamped to the largest sample
// (metrics.Histogram.Quantile).
type HistogramSummary struct {
	Count       int64   `json:"count"`
	MeanSeconds float64 `json:"mean_seconds"`
	P50Seconds  float64 `json:"p50_seconds"`
	P90Seconds  float64 `json:"p90_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
}

func summarize(h *metrics.Histogram) HistogramSummary {
	s := HistogramSummary{Count: int64(h.Count())}
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
	Shed    int64 `json:"shed"`
	Bounced int64 `json:"bounced"`

	SlackAdmission  HistogramSummary `json:"slack_admission"`
	SlackCompletion HistogramSummary `json:"slack_completion"`
}

// SLOInput is what an SLOSummary is computed from: one scheduler domain's
// books and its two slack distributions. The inputs of several domains add
// exactly, so a federation's rollup is the summary of every shard's samples
// together.
type SLOInput struct {
	Counts          metrics.Counts
	SlackAdmission  metrics.Histogram
	SlackCompletion metrics.Histogram
}

// SLOInput reads the observer's books and slack histograms (the zero input
// for a nil observer).
func (o *Observer) SLOInput() SLOInput {
	if o == nil {
		return SLOInput{}
	}
	return SLOInput{
		Counts:          o.Counts(),
		SlackAdmission:  o.slackAdmission.Snapshot(),
		SlackCompletion: o.slackCompletion.Snapshot(),
	}
}

// Add folds another domain's input into in: counts sum, slack histograms
// merge.
func (in *SLOInput) Add(other SLOInput) {
	for k, n := range other.Counts {
		in.Counts[k] += n
	}
	in.SlackAdmission.Merge(&other.SlackAdmission)
	in.SlackCompletion.Merge(&other.SlackCompletion)
}

// Summary digests the input into the /slo payload, the guarantee ratio
// computed over its terminals.
func (in SLOInput) Summary() SLOSummary {
	c := &in.Counts
	s := SLOSummary{
		Arrivals:        c[metrics.CountTotal],
		Admitted:        c[metrics.CountAdmitted],
		Hits:            c[metrics.CountHits],
		Missed:          c[metrics.CountMissed],
		Expired:         c[metrics.CountPurged],
		Lost:            c[metrics.CountLost],
		Shed:            c[metrics.CountShed],
		Bounced:         c[metrics.CountBounced],
		SlackAdmission:  summarize(&in.SlackAdmission),
		SlackCompletion: summarize(&in.SlackCompletion),
	}
	if done := s.Hits + s.Missed + s.Expired + s.Lost; done > 0 {
		s.GuaranteeRatioPPM = s.Hits * 1_000_000 / done
	}
	return s
}
