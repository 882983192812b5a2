package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// Verdicts of one (metric, workload) row.
const (
	verdictWithin     = "within bound"
	verdictImproved   = "improved"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "UNRESOLVED"
	verdictChanged    = "CHANGED"
)

// exactRow reports whether a row repeats bit for bit for a seed: the
// simulated ratios of sim-paper. Their bound is 0 in both directions — a
// different value means the schedules changed, not the speed.
func exactRow(r row) bool {
	return r.Workload == wlSim && (r.Metric == "guarantee_ratio" || r.Metric == "sched_kept_ratio")
}

// judge applies the choosing-metrics rule to one row: the change may be
// worse than the base by at most bound (a share of the base median); when
// the run-to-run spread of either side is wider than the bound the row is
// unresolved, not unchanged — unless every run of the change beats every
// run of the base. setup_s is held median against median only, as the
// driver holds it: its spread on a small box exceeds any bound the contract
// allows, so the spread rule would make it unresolved for ever. With exact
// set (an exactRow measured with the same seeds on both sides) the runs
// must agree value for value.
func judge(base, change row, higherBetter bool, bound float64, exact bool) (worse, spread float64, verdict string) {
	b := math.Abs(base.Median)
	if b == 0 {
		return 0, 0, verdictUnresolved
	}
	worse = (change.Median - base.Median) / b
	if higherBetter {
		worse = -worse
	}
	spread = math.Max(base.Q3-base.Q1, change.Q3-change.Q1) / b
	switch {
	case exact && slices.Equal(base.Values, change.Values):
		return worse, spread, verdictWithin
	case exact:
		return worse, spread, verdictChanged
	case spread > bound && base.Metric != "setup_s":
		if allBetter(base.Values, change.Values, higherBetter) {
			return worse, spread, verdictImproved
		}
		return worse, spread, verdictUnresolved
	case worse > bound:
		return worse, spread, verdictRegressed
	case worse < -bound:
		return worse, spread, verdictImproved
	}
	return worse, spread, verdictWithin
}

// allBetter reports whether every run of the change reads better than
// every run of the base.
func allBetter(base, change []float64, higherBetter bool) bool {
	if len(base) == 0 || len(change) == 0 {
		return false
	}
	for _, c := range change {
		for _, b := range base {
			if higherBetter && c <= b || !higherBetter && c >= b {
				return false
			}
		}
	}
	return true
}

// compareSets prints one line per (end-to-end metric, workload) and
// reports whether every row is within its bound and resolved.
func compareSets(spec *benchSpec, base, change *resultSet, w io.Writer) bool {
	type key struct{ workload, metric string }
	changed := make(map[key]row, len(change.EndToEnd))
	for _, r := range change.EndToEnd {
		changed[key{r.Workload, r.Metric}] = r
	}
	bounds := make(map[string]specMetric, len(spec.EndToEnd))
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m
	}
	fmt.Fprintf(w, "base: commit %s seed %d (%d run(s)); change: commit %s seed %d (%d run(s))\n",
		base.Machine.Commit, base.Machine.Seed, len(base.EndToEnd[0].Values),
		change.Machine.Commit, change.Machine.Seed, len(change.EndToEnd[0].Values))
	fmt.Fprintf(w, "%-16s %-22s %38s %38s %22s %8s  %s\n",
		"workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "worse by (of base)", "bound", "verdict")
	sameSeeds := base.Machine.Seed == change.Machine.Seed && base.Machine.SeedStep == change.Machine.SeedStep
	ok := true
	for _, b := range base.EndToEnd {
		c, found := changed[key{b.Workload, b.Metric}]
		m, bounded := bounds[b.Metric]
		if !found || !bounded {
			fmt.Fprintf(w, "%-16s %-22s missing on one side or in the spec\n", b.Workload, b.Metric)
			ok = false
			continue
		}
		worse, spread, verdict := judge(b, c, m.Better == "higher", m.Bound, sameSeeds && exactRow(b))
		if verdict != verdictWithin && verdict != verdictImproved {
			ok = false
		}
		fmt.Fprintf(w, "%-16s %-22s %38s %38s %22s %7.1f%%  %s (spread %.1f%%)\n", b.Workload, b.Metric,
			fmt.Sprintf("%.6g [%.6g, %.6g]", b.Median, b.Q1, b.Q3),
			fmt.Sprintf("%.6g [%.6g, %.6g]", c.Median, c.Q1, c.Q3),
			fmt.Sprintf("%+.2f%% of %.6g %s", 100*worse, b.Median, b.Unit),
			100*m.Bound, verdict, 100*spread)
	}
	if base.Failed+change.Failed > 0 {
		fmt.Fprintf(w, "failed tasks: base %d, change %d\n", base.Failed, change.Failed)
		ok = false
	}
	return ok
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s holds no end-to-end rows", path)
	}
	return &s, nil
}

// compareFiles is the -compare mode.
func compareFiles(basePath, changePath string, stdout, stderr io.Writer) int {
	spec, err := loadSpec(specPath)
	var base, change *resultSet
	if err == nil {
		base, err = readSet(basePath)
	}
	if err == nil {
		change, err = readSet(changePath)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if compareSets(spec, base, change, stdout) {
		return 0
	}
	return 1
}
