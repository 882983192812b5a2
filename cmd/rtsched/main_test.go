package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFig5(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "fig5", "-runs", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 5", "RT-SADS", "D-COLS"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "bogus"}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunInvalidFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-runs", "0", "-exp", "fig5"}, &out); err == nil {
		t.Error("zero runs accepted")
	}
	if err := run([]string{"-tournament", "-runs", "-2"}, &out); err == nil {
		t.Errorf("negative tournament runs accepted:\n%s", out.String())
	}
}

func TestRunCSVOutput(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-exp", "fig6", "-runs", "2", "-csv", dir}, &out); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Errorf("wrote %d CSV files, want 1", len(matches))
	}
}

func TestRunQuantumTable(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "quantum", "-runs", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "adaptive") {
		t.Error("quantum table missing adaptive row")
	}
}

func TestRunSpec(t *testing.T) {
	dir := t.TempDir()
	specFile := filepath.Join(dir, "exp.json")
	js := `{
		"name": "spec-smoke",
		"runs": 2,
		"base": {"workers": 3, "transactions": 60},
		"sweep": {"param": "sf", "values": [1, 2]}
	}`
	if err := os.WriteFile(specFile, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-spec", specFile}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "spec-smoke") {
		t.Errorf("spec output missing name:\n%s", out.String())
	}
}

func TestRunSpecMissingFile(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-spec", "/nonexistent/x.json"}, &out); err == nil {
		t.Error("missing spec file accepted")
	}
}

func TestRunMesh(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "mesh"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wormhole mesh") {
		t.Error("mesh output missing")
	}
}

func TestRunChromeTrace(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "trace.json")
	var buf strings.Builder
	if err := run([]string{"-chrometrace", out}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[0] != '[' {
		t.Errorf("trace file does not look like a JSON array: %q...", data[:min(20, len(data))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestRunPlotFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "fig5", "-runs", "2", "-plot"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "* RT-SADS") {
		t.Errorf("plot legend missing:\n%s", out.String())
	}
}

func TestDumpAndRunTasks(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "tasks.json")
	var out strings.Builder
	if err := run([]string{"-dumptasks", file, "-workers", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote 1000 tasks") {
		t.Errorf("dump output: %q", out.String())
	}
	out.Reset()
	if err := run([]string{"-runtasks", file, "-workers", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "RT-SADS") || !strings.Contains(out.String(), "hit=") {
		t.Errorf("run output: %q", out.String())
	}
}

func TestRunTasksMissingFile(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-runtasks", "/no/such/file.json"}, &out); err == nil {
		t.Error("missing task file accepted")
	}
}

// TestRunDebugAddr: the simulator command can serve its observer while a
// traced run executes; the endpoint line names the resolved port.
func TestRunDebugAddr(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "trace.json")
	var buf strings.Builder
	if err := run([]string{"-chrometrace", out, "-debug-addr", "127.0.0.1:0"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "debug endpoint: http://127.0.0.1:") {
		t.Errorf("output missing debug endpoint line: %q", buf.String())
	}
}
