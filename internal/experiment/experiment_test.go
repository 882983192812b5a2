package experiment

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"rtsads/internal/core"
	"rtsads/internal/metrics"
	"rtsads/internal/workload"
)

// fastRC keeps the test suite quick: 3 runs instead of the paper's 10.
func fastRC() RunConfig {
	rc := DefaultRunConfig()
	rc.Runs = 3
	return rc
}

func TestRunConfigValidate(t *testing.T) {
	if err := DefaultRunConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	rc := DefaultRunConfig()
	rc.Runs = 0
	if err := rc.Validate(); err == nil {
		t.Error("zero runs accepted")
	}
	rc = DefaultRunConfig()
	rc.VertexCost = 0
	if err := rc.Validate(); err == nil {
		t.Error("zero vertex cost accepted")
	}
}

func TestNewPlannerUnknownAlgorithm(t *testing.T) {
	w, err := workload.Generate(workload.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlanner("nonsense", w, DefaultRunConfig()); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestNewPlannerAllAlgorithms(t *testing.T) {
	w, err := workload.Generate(workload.DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range Algorithms() {
		p, err := NewPlanner(algo, w, DefaultRunConfig())
		if err != nil {
			t.Errorf("%s: %v", algo, err)
			continue
		}
		if p.Name() != string(algo) {
			t.Errorf("planner name %q != algorithm %q", p.Name(), algo)
		}
	}
}

func TestRunOnceDeterministic(t *testing.T) {
	p := workload.DefaultParams(4)
	p.NumTransactions = 200
	a, err := RunOnce(RTSADS, p, 7, DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOnce(RTSADS, p, 7, DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Hits != b.Hits || a.Phases != b.Phases || a.SchedulingTime != b.SchedulingTime {
		t.Errorf("identical seeds differ: %s vs %s", a, b)
	}
	c, err := RunOnce(RTSADS, p, 8, DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Hits == c.Hits && a.Phases == c.Phases && a.Makespan == c.Makespan {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestRunRepeatedAggregates(t *testing.T) {
	p := workload.DefaultParams(3)
	p.NumTransactions = 150
	rc := fastRC()
	agg, err := RunRepeated(RTSADS, p, rc)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Runs != rc.Runs {
		t.Errorf("aggregated %d runs, want %d", agg.Runs, rc.Runs)
	}
	if agg.ScheduledMissed != 0 {
		t.Errorf("theorem violated in %d cases", agg.ScheduledMissed)
	}
	if agg.HitRatio.N() != rc.Runs {
		t.Errorf("hit-ratio summary has %d samples", agg.HitRatio.N())
	}
}

func TestFig5Shape(t *testing.T) {
	fig, err := Fig5(fastRC())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 9 {
		t.Fatalf("Fig5 has %d points, want 9 (P=2..10)", len(fig.Points))
	}
	first, last := fig.Points[0], fig.Points[len(fig.Points)-1]
	// RT-SADS must scale: clearly higher hit ratio at P=10 than at P=2.
	rtFirst := first.Aggs[RTSADS].HitRatio.Mean()
	rtLast := last.Aggs[RTSADS].HitRatio.Mean()
	if rtLast <= rtFirst*1.5 {
		t.Errorf("RT-SADS does not scale: %.3f at P=2 vs %.3f at P=10", rtFirst, rtLast)
	}
	// RT-SADS must dominate D-COLS at the high end (the paper's headline).
	dcLast := last.Aggs[DCOLS].HitRatio.Mean()
	if rtLast <= dcLast {
		t.Errorf("RT-SADS (%.3f) does not beat D-COLS (%.3f) at P=10", rtLast, dcLast)
	}
	// D-COLS must not scale like RT-SADS: its P=10/P=2 growth should be
	// clearly smaller.
	dcFirst := first.Aggs[DCOLS].HitRatio.Mean()
	if dcFirst > 0 && rtFirst > 0 {
		if dcLast/dcFirst >= rtLast/rtFirst {
			t.Errorf("D-COLS scaled as well as RT-SADS: %.2fx vs %.2fx",
				dcLast/dcFirst, rtLast/rtFirst)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	fig, err := Fig6(fastRC())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 10 {
		t.Fatalf("Fig6 has %d points, want 10 (R=10%%..100%%)", len(fig.Points))
	}
	first, last := fig.Points[0], fig.Points[len(fig.Points)-1]
	// D-COLS improves with replication.
	dcFirst := first.Aggs[DCOLS].HitRatio.Mean()
	dcLast := last.Aggs[DCOLS].HitRatio.Mean()
	if dcLast <= dcFirst {
		t.Errorf("D-COLS does not improve with replication: %.3f -> %.3f", dcFirst, dcLast)
	}
	// RT-SADS stays ahead at every point.
	for _, pt := range fig.Points {
		rt := pt.Aggs[RTSADS].HitRatio.Mean()
		dc := pt.Aggs[DCOLS].HitRatio.Mean()
		if rt < dc {
			t.Errorf("%s: RT-SADS %.3f below D-COLS %.3f", pt.Label, rt, dc)
		}
	}
}

func TestRenderFigure(t *testing.T) {
	fig, err := Fig5(RunConfig{Runs: 2, BaseSeed: 1, VertexCost: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := fig.Render(&text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	for _, want := range []string{"Figure 5", "RT-SADS", "D-COLS", "P=2", "P=10", "signif"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered figure missing %q:\n%s", want, out)
		}
	}
	var csv strings.Builder
	if err := fig.RenderCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 10 { // header + 9 points
		t.Errorf("CSV has %d lines, want 10", len(lines))
	}
	if !strings.HasPrefix(lines[0], "x,RT-SADS,") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

func TestQuantumAblation(t *testing.T) {
	rows, err := QuantumAblation(fastRC())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("got %d rows, want 12 (6 policies × 2 SF points)", len(rows))
	}
	byKey := map[string]float64{}
	for _, r := range rows {
		byKey[fmt.Sprintf("%s@%g", r.Policy, r.SF)] = r.Agg.HitRatio.Mean()
	}
	// The adaptive criterion must beat the pathological huge fixed quantum
	// under tight deadlines, and the tiny fixed quantum under loose ones.
	if byKey["adaptive@1"] <= byKey["fixed(5ms)@1"] {
		t.Errorf("adaptive (%.3f) does not beat fixed(5ms) (%.3f) at SF=1",
			byKey["adaptive@1"], byKey["fixed(5ms)@1"])
	}
	if byKey["adaptive@3"] <= byKey["fixed(50µs)@3"] {
		t.Errorf("adaptive (%.3f) does not beat fixed(50µs) (%.3f) at SF=3",
			byKey["adaptive@3"], byKey["fixed(50µs)@3"])
	}
	var b strings.Builder
	if err := RenderQuantumRows(&b, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "adaptive") {
		t.Error("quantum table missing policies")
	}
}

func TestDeadEndsStudy(t *testing.T) {
	rows, err := DeadEnds(fastRC())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	get := func(a Algorithm, r float64) DeadEndRow {
		for _, row := range rows {
			if row.Algorithm == a && row.Replication == r {
				return row
			}
		}
		t.Fatalf("row %s R=%v missing", a, r)
		return DeadEndRow{}
	}
	// At 10% replication the sequence representation leaves workers idle;
	// the assignment representation does not.
	dcIdle := get(DCOLS, 0.10).Agg.IdleWorkers.Mean()
	rtIdle := get(RTSADS, 0.10).Agg.IdleWorkers.Mean()
	if dcIdle <= rtIdle {
		t.Errorf("idle workers: D-COLS %.1f <= RT-SADS %.1f at R=10%%", dcIdle, rtIdle)
	}
	var b strings.Builder
	if err := RenderDeadEndRows(&b, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "idle workers") {
		t.Error("dead-end table malformed")
	}
}

func TestSchedulingCostStudy(t *testing.T) {
	rows, err := SchedulingCost(fastRC())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Agg.SchedulingMS.Mean() <= 0 {
			t.Errorf("%s P=%d: no scheduling cost recorded", r.Algorithm, r.Workers)
		}
	}
	var b strings.Builder
	if err := RenderCostRows(&b, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "sched ms") {
		t.Error("cost table malformed")
	}
}

func TestLaxityFigures(t *testing.T) {
	rc := fastRC()
	rc.Runs = 2
	figs, err := Laxity(rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 3 {
		t.Fatalf("got %d laxity figures, want 3", len(figs))
	}
	// Looser deadlines must raise RT-SADS's compliance at P=10.
	last := func(f *Figure) float64 {
		return f.Points[len(f.Points)-1].Aggs[RTSADS].HitRatio.Mean()
	}
	if !(last(figs[2]) > last(figs[0])) {
		t.Errorf("SF=3 (%.3f) not above SF=1 (%.3f)", last(figs[2]), last(figs[0]))
	}
	// All four algorithms plus the oracle reference present.
	for _, f := range figs {
		if len(f.Algorithms) != 5 {
			t.Errorf("%s has %d algorithms, want 5", f.ID, len(f.Algorithms))
		}
	}
}

func TestQuantumPolicyOverride(t *testing.T) {
	rc := fastRC()
	rc.Policy = core.Fixed{D: 100 * time.Microsecond}
	p := workload.DefaultParams(3)
	p.NumTransactions = 100
	agg, err := RunRepeated(RTSADS, p, rc)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Runs != rc.Runs {
		t.Errorf("aggregated %d runs", agg.Runs)
	}
}

func TestReclaimingStudy(t *testing.T) {
	rows, err := Reclaiming(fastRC())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10 (5 noise levels × on/off)", len(rows))
	}
	get := func(noise float64, reclaim bool) float64 {
		for _, r := range rows {
			if r.Noise == noise && r.Reclaim == reclaim {
				return r.Agg.HitRatio.Mean()
			}
		}
		t.Fatalf("row noise=%v reclaim=%v missing", noise, reclaim)
		return 0
	}
	// With exact estimates reclaiming changes nothing.
	if on, off := get(0, true), get(0, false); on != off {
		t.Errorf("noise=0: reclaiming on %.3f != off %.3f", on, off)
	}
	// At high noise reclaiming must clearly win.
	if on, off := get(0.8, true), get(0.8, false); on <= off {
		t.Errorf("noise=0.8: reclaiming on %.3f <= off %.3f", on, off)
	}
	var b strings.Builder
	if err := RenderReclaimRows(&b, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "reclaiming") {
		t.Error("reclaim table malformed")
	}
}

func TestPruningStudy(t *testing.T) {
	rc := fastRC()
	rc.Runs = 2
	rows, err := Pruning(rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("got %d rows, want 9 (2 algorithms × 4 variants + least-loaded)", len(rows))
	}
	// The paper's DFS variant must be present and competitive for RT-SADS:
	// no pruned variant may beat it by a wide margin.
	var dfs float64
	for _, r := range rows {
		if r.Algorithm == RTSADS && r.Variant == "dfs (paper)" {
			dfs = r.Agg.HitRatio.Mean()
		}
	}
	if dfs == 0 {
		t.Fatal("dfs (paper) row missing")
	}
	for _, r := range rows {
		if r.Algorithm == RTSADS && r.Agg.HitRatio.Mean() > dfs*1.25 {
			t.Errorf("variant %q beats the paper's DFS by >25%%: %.3f vs %.3f",
				r.Variant, r.Agg.HitRatio.Mean(), dfs)
		}
	}
	var b strings.Builder
	if err := RenderPruneRows(&b, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "best-first") {
		t.Error("prune table malformed")
	}
}

func TestTuneHookApplies(t *testing.T) {
	rc := fastRC()
	rc.Runs = 1
	applied := false
	rc.Tune = func(c *core.SearchConfig) { applied = true; c.MaxDepth = 5 }
	p := workload.DefaultParams(2)
	p.NumTransactions = 50
	if _, err := RunRepeated(RTSADS, p, rc); err != nil {
		t.Fatal(err)
	}
	if !applied {
		t.Error("Tune hook never invoked")
	}
}

func TestPoissonLoadShape(t *testing.T) {
	fig, err := PoissonLoad(fastRC())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 5 {
		t.Fatalf("got %d points, want 5", len(fig.Points))
	}
	// Hit ratio must rise as load falls (larger inter-arrival gaps), and
	// RT-SADS must dominate at every point.
	first := fig.Points[0].Aggs[RTSADS].HitRatio.Mean()
	last := fig.Points[len(fig.Points)-1].Aggs[RTSADS].HitRatio.Mean()
	if last <= first {
		t.Errorf("RT-SADS compliance did not rise with falling load: %.3f -> %.3f", first, last)
	}
	for _, pt := range fig.Points {
		if pt.Aggs[RTSADS].HitRatio.Mean() < pt.Aggs[DCOLS].HitRatio.Mean() {
			t.Errorf("%s: D-COLS above RT-SADS", pt.Label)
		}
	}
	// At the lightest load RT-SADS should be near-perfect.
	if last < 0.95 {
		t.Errorf("RT-SADS at light load only %.3f, want >= 0.95", last)
	}
}

func TestOraclePlannerDominates(t *testing.T) {
	rc := fastRC()
	p := workload.DefaultParams(10)
	oracle, err := RunRepeated(Oracle, p, rc)
	if err != nil {
		t.Fatal(err)
	}
	rtsads, err := RunRepeated(RTSADS, p, rc)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.HitRatio.Mean() < rtsads.HitRatio.Mean() {
		t.Errorf("oracle (%.3f) below RT-SADS (%.3f)", oracle.HitRatio.Mean(), rtsads.HitRatio.Mean())
	}
	if oracle.ScheduledMissed != 0 {
		t.Error("oracle violated the deadline guarantee")
	}
}

func TestAggregatePoolsResponseTimes(t *testing.T) {
	rc := fastRC()
	p := workload.DefaultParams(4)
	p.NumTransactions = 100
	agg, err := RunRepeated(RTSADS, p, rc)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Response.Count() == 0 {
		t.Error("no response times pooled")
	}
	if agg.Response.Quantile(0.95) <= 0 {
		t.Error("response p95 not positive")
	}
}

func TestMeshCheck(t *testing.T) {
	res, err := MeshCheck(11, 350_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DistanceRows) == 0 || len(res.ContentionRows) != 5 {
		t.Fatalf("rows: %d distance, %d contention", len(res.DistanceRows), len(res.ContentionRows))
	}
	// Distance must be negligible: the farthest hop within +0.1% of one hop.
	last := res.DistanceRows[len(res.DistanceRows)-1]
	if last.RelToOne > 1.001 {
		t.Errorf("distance adds %.4f%%, undermining the constant-C model", 100*(last.RelToOne-1))
	}
	// Contention must grow with simultaneous senders.
	if res.ContentionRows[4].Blocked <= res.ContentionRows[0].Blocked {
		t.Error("no contention recorded at 16 simultaneous senders")
	}
	var b strings.Builder
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "wormhole mesh") {
		t.Error("mesh table malformed")
	}
}

func TestMeshCheckInvalid(t *testing.T) {
	if _, err := MeshCheck(0, 1000, 1); err == nil {
		t.Error("zero nodes accepted")
	}
}

func TestRenderPlot(t *testing.T) {
	rc := fastRC()
	rc.Runs = 2
	fig, err := Fig6(rc)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := fig.RenderPlot(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "RT-SADS") || !strings.Contains(b.String(), "hit%") {
		t.Errorf("plot output malformed:\n%s", b.String())
	}
}

func TestPlacementStudy(t *testing.T) {
	rc := fastRC()
	rc.Runs = 2
	rows, err := Placement(rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6 (2 algorithms × 3 strategies)", len(rows))
	}
	for _, r := range rows {
		if r.Algorithm == RTSADS && r.Agg.HitRatio.Mean() < 0.05 {
			t.Errorf("RT-SADS collapsed under %s placement: %.3f", r.Strategy, r.Agg.HitRatio.Mean())
		}
	}
	var b strings.Builder
	if err := RenderPlacementRows(&b, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "clustered") {
		t.Error("placement table malformed")
	}
}

func TestFailuresStudy(t *testing.T) {
	rc := fastRC()
	rc.Runs = 2
	rows, err := Failures(rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(rows))
	}
	get := func(a Algorithm, crashed int) *metrics.Aggregate {
		for _, r := range rows {
			if r.Algorithm == a && r.Crashed == crashed {
				return r.Agg
			}
		}
		t.Fatalf("row %s crashed=%d missing", a, crashed)
		return nil
	}
	// RT-SADS must degrade gracefully, not collapse.
	base := get(RTSADS, 0).HitRatio.Mean()
	four := get(RTSADS, 4).HitRatio.Mean()
	if four >= base {
		t.Errorf("four crashes did not hurt: %.3f vs %.3f", four, base)
	}
	if four < 0.5*base {
		t.Errorf("four crashes collapsed RT-SADS: %.3f vs %.3f", four, base)
	}
	if get(RTSADS, 0).LostToFailure.Mean() != 0 {
		t.Error("baseline lost tasks to failure")
	}
	var b strings.Builder
	if err := RenderFailureRows(&b, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "crashed workers") {
		t.Error("failure table malformed")
	}
}

func TestHostArchitectureStudy(t *testing.T) {
	rc := fastRC()
	rc.Runs = 2
	rows, err := HostArchitecture(rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		switch r.Mode {
		case "dedicated":
			if r.Agg.ScheduledMissed != 0 {
				t.Errorf("dedicated host at %d nodes violated the guarantee %d times",
					r.Nodes, r.Agg.ScheduledMissed)
			}
		case "combined":
			// The guarantee is expected to break (that is the finding), but
			// only mildly: a handful of tasks per run, not a collapse.
			if perRun := float64(r.Agg.ScheduledMissed) / float64(r.Agg.Runs); perRun > 20 {
				t.Errorf("combined host at %d nodes missed %.1f scheduled tasks per run", r.Nodes, perRun)
			}
		default:
			t.Errorf("unknown mode %q", r.Mode)
		}
	}
	var b strings.Builder
	if err := RenderHostRows(&b, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "dedicated") {
		t.Error("host table malformed")
	}
}

func TestHeuristicsStudy(t *testing.T) {
	rc := fastRC()
	rc.Runs = 2
	rows, err := Heuristics(rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8 (2 SF × 2 priorities × 2 costs)", len(rows))
	}
	// With deadline = SF×10×cost, EDF and LLF order identically, so their
	// hit ratios must match exactly at equal cost functions.
	byKey := map[string]float64{}
	for _, r := range rows {
		byKey[fmt.Sprintf("%g/%s/%s", r.SF, r.Priority, r.Cost)] = r.Agg.HitRatio.Mean()
	}
	for _, sf := range []string{"1", "3"} {
		for _, cost := range []string{"max (paper)", "sum"} {
			edf := byKey[sf+"/edf/"+cost]
			llf := byKey[sf+"/llf/"+cost]
			if edf != llf {
				t.Errorf("SF=%s cost=%s: EDF %.4f != LLF %.4f (orders should coincide)",
					sf, cost, edf, llf)
			}
		}
	}
	var b strings.Builder
	if err := RenderHeuristicRows(&b, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "llf") {
		t.Error("heuristics table malformed")
	}
}
