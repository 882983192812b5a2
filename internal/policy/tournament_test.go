package policy

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
)

// TestTournamentSmoke races every registered policy over the corpus: every
// entry must finish without error — which includes per-run terminal
// accounting and the §4.3 zero-scheduled-miss guarantee — and both output
// formats must cover the whole registry.
func TestTournamentSmoke(t *testing.T) {
	report, err := Tournament(TournamentConfig{Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	names := Default().Names()
	if len(report.Entries) != len(names) {
		t.Fatalf("report covers %d policies, registry has %d", len(report.Entries), len(names))
	}
	for _, e := range report.Entries {
		if e.Err != "" {
			t.Errorf("%s: %s", e.Policy, e.Err)
		}
		if len(e.Cells) != len(DefaultCorpus()) {
			t.Errorf("%s: %d cells, want %d", e.Policy, len(e.Cells), len(DefaultCorpus()))
			continue
		}
		for _, c := range e.Cells {
			if c.Tasks == 0 {
				t.Errorf("%s: cell sf=%g ran no tasks", e.Policy, c.SF)
			}
		}
		if e.GuaranteeRatio <= 0 || e.GuaranteeRatio > 1 {
			t.Errorf("%s: guarantee ratio %v out of range", e.Policy, e.GuaranteeRatio)
		}
	}

	var table strings.Builder
	if err := report.Render(&table); err != nil {
		t.Fatal(err)
	}
	var jsonl strings.Builder
	if err := report.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if !strings.Contains(table.String(), name) {
			t.Errorf("table missing %q:\n%s", name, table.String())
		}
		if !strings.Contains(jsonl.String(), `"policy":"`+name+`"`) {
			t.Errorf("jsonl missing %q", name)
		}
	}
	sc := bufio.NewScanner(strings.NewReader(jsonl.String()))
	lines := 0
	for sc.Scan() {
		var e Entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("jsonl line %d: %v", lines, err)
		}
		lines++
	}
	if lines != len(names) {
		t.Fatalf("jsonl has %d lines, want %d", lines, len(names))
	}
}

// TestTournamentDeterminism: two tournaments of the whole registry must
// agree entry for entry — the fan-out across CPUs must not leak into the
// report.
func TestTournamentDeterminism(t *testing.T) {
	cfg := TournamentConfig{Runs: 1}
	a, err := Tournament(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Tournament(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Entries {
		ea, eb := a.Entries[i], b.Entries[i]
		if ea.Policy != eb.Policy || ea.GuaranteeRatio != eb.GuaranteeRatio ||
			ea.ShedMiss != eb.ShedMiss || ea.SchedulingMS != eb.SchedulingMS {
			t.Fatalf("tournament not deterministic:\n  a: %+v\n  b: %+v", ea, eb)
		}
	}
}

// TestTournamentReportsUnknownPolicy: a bad contender fails its entry but
// the report still covers everyone.
func TestTournamentReportsUnknownPolicy(t *testing.T) {
	report, err := Tournament(TournamentConfig{
		Runs:     1,
		Policies: []string{"EDF-greedy", "bogus"},
	})
	if err == nil {
		t.Fatal("unknown contender did not surface as an error")
	}
	if len(report.Entries) != 2 {
		t.Fatalf("report has %d entries, want 2", len(report.Entries))
	}
	if report.Entries[0].Err != "" {
		t.Fatalf("healthy contender failed: %s", report.Entries[0].Err)
	}
	if report.Entries[1].Err == "" {
		t.Fatal("bad contender's entry carries no error")
	}
}

// TestTournamentRejectsNegativeRuns: a negative run count is an error, not
// an empty report of zero ratios that reads as success.
func TestTournamentRejectsNegativeRuns(t *testing.T) {
	report, err := Tournament(TournamentConfig{Runs: -2})
	if err == nil {
		t.Fatalf("Runs -2 accepted: %d entries", len(report.Entries))
	}
	if report != nil {
		t.Fatal("Runs -2 returned a report beside the error")
	}
}
