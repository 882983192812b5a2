// Command benchcmp compares two BENCH_*.json files (as written by
// scripts/bench.sh and scripts/bench_cluster.sh) and exits non-zero when
// the gate benchmark regresses more than the threshold on any gated
// metric. Throughput metrics (suffix _per_s / _per_sec) regress downward;
// everything else (ns_per_op, allocs_per_op, B_per_op) regresses upward.
//
// The defaults gate the search core's allocation-free fast path:
// expand-only on ns_per_op and allocs_per_op, 20% threshold, with a hard
// zero rule — a zero cost baseline means any non-zero value fails outright
// (the expand path is allocation-free by construction).
//
// -cap gates absolute ceilings on the NEW results' gate benchmark,
// independent of the baseline: "allocs_per_op<=269" fails when the gate
// benchmark's allocs/op exceeds 269 on this run, however the baseline
// drifted. Ceilings pin structural properties (the batched admission path's
// allocation diet) that a relative threshold would let erode a few percent
// per PR. Comma-separate multiple caps.
//
// Usage:
//
//	go run ./scripts/benchcmp base.json new.json
//	go run ./scripts/benchcmp -gate 'shards=4' -metrics tasks_per_s -threshold 0.30 base.json new.json
//	go run ./scripts/benchcmp -gate 'shards=4/batch=all' -metrics tasks_per_s -cap 'allocs_per_op<=269' base.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// File mirrors the schema written by scripts/benchjson.
type File struct {
	Suite      string                        `json:"suite"`
	GOOS       string                        `json:"goos,omitempty"`
	GOARCH     string                        `json:"goarch,omitempty"`
	CPU        string                        `json:"cpu,omitempty"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

func load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &f, nil
}

// betterIsMax reports whether larger values of the metric are better
// (throughput); for those a regression is a drop below the baseline.
func betterIsMax(key string) bool {
	return strings.HasSuffix(key, "_per_s") || strings.HasSuffix(key, "_per_sec")
}

func main() {
	gate := flag.String("gate", "expand-only", "benchmark whose regression fails the comparison")
	metrics := flag.String("metrics", "ns_per_op,allocs_per_op", "comma-separated metrics to gate on")
	threshold := flag.Float64("threshold", 0.20, "relative regression that fails (0.20 = 20% worse)")
	caps := flag.String("cap", "", `comma-separated absolute ceilings on the gate benchmark's NEW results: "allocs_per_op<=269" fails when the metric exceeds the bound`)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-gate name] [-metrics a,b] [-threshold frac] base.json new.json")
		os.Exit(2)
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}

	// Informational delta table over every benchmark both files share.
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		if _, ok := cur.Benchmarks[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Printf("%-28s %14s %14s %9s\n", "benchmark", "base ns/op", "new ns/op", "delta")
	for _, name := range names {
		b, c := base.Benchmarks[name]["ns_per_op"], cur.Benchmarks[name]["ns_per_op"]
		delta := "n/a"
		if b > 0 {
			delta = fmt.Sprintf("%+.1f%%", (c-b)/b*100)
		}
		fmt.Printf("%-28s %14.1f %14.1f %9s\n", name, b, c, delta)
	}

	bm, ok := base.Benchmarks[*gate]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchcmp: baseline has no %q benchmark\n", *gate)
		os.Exit(2)
	}
	cm, ok := cur.Benchmarks[*gate]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchcmp: new results have no %q benchmark\n", *gate)
		os.Exit(2)
	}

	failed := false
	check := func(metric string) {
		b, c := bm[metric], cm[metric]
		switch {
		case betterIsMax(metric) && b > 0 && c < b*(1-*threshold):
			fmt.Printf("FAIL %s/%s: %.1f -> %.1f (%+.1f%%, threshold -%.0f%%)\n",
				*gate, metric, b, c, (c-b)/b*100, *threshold*100)
			failed = true
		case betterIsMax(metric):
			fmt.Printf("ok   %s/%s: %.1f -> %.1f\n", *gate, metric, b, c)
		case b == 0 && c > 0:
			// A zero cost baseline is a hard invariant (e.g. the expand path
			// is allocation-free): any value at all is a regression.
			fmt.Printf("FAIL %s/%s: baseline 0, now %.1f\n", *gate, metric, c)
			failed = true
		case b > 0 && c > b*(1+*threshold):
			fmt.Printf("FAIL %s/%s: %.1f -> %.1f (%+.1f%%, threshold %+.0f%%)\n",
				*gate, metric, b, c, (c-b)/b*100, *threshold*100)
			failed = true
		default:
			fmt.Printf("ok   %s/%s: %.1f -> %.1f\n", *gate, metric, b, c)
		}
	}
	for _, m := range strings.Split(*metrics, ",") {
		if m = strings.TrimSpace(m); m != "" {
			check(m)
		}
	}
	if *caps != "" && !checkCaps(*gate, cm, *caps) {
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// checkCaps enforces absolute "metric<=bound" ceilings on the gate
// benchmark's new results. A cap on a metric the run did not record fails:
// a ceiling that silently stops being measured is not a ceiling.
func checkCaps(gate string, cm map[string]float64, caps string) bool {
	ok := true
	for _, spec := range strings.Split(caps, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		metric, boundStr, found := strings.Cut(spec, "<=")
		metric, boundStr = strings.TrimSpace(metric), strings.TrimSpace(boundStr)
		if !found || metric == "" || boundStr == "" {
			fmt.Fprintf(os.Stderr, "benchcmp: -cap %q must have the form metric<=bound\n", spec)
			os.Exit(2)
		}
		var bound float64
		if _, err := fmt.Sscanf(boundStr, "%g", &bound); err != nil {
			fmt.Fprintf(os.Stderr, "benchcmp: -cap %q: bad bound: %v\n", spec, err)
			os.Exit(2)
		}
		got, recorded := cm[metric]
		switch {
		case !recorded:
			fmt.Printf("FAIL %s/%s: cap <=%g but the new run did not record the metric\n", gate, metric, bound)
			ok = false
		case got > bound:
			fmt.Printf("FAIL %s/%s: %.1f exceeds cap %g\n", gate, metric, got, bound)
			ok = false
		default:
			fmt.Printf("ok   %s/%s: %.1f within cap %g\n", gate, metric, got, bound)
		}
	}
	return ok
}
