package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"rtsads/internal/simtime"
)

const (
	usec = time.Microsecond
	msec = time.Millisecond
)

func at(d time.Duration) simtime.Instant { return simtime.Instant(d) }

// chromeView renders entries as the worker-track Chrome trace and decodes
// it, failing the test when the output is not the JSON array Perfetto loads.
func chromeView(t *testing.T, entries []Entry, evicted int64) []map[string]any {
	t.Helper()
	var b strings.Builder
	if err := WriteChromeTrace(&b, entries, evicted); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("output is not valid trace JSON: %v\n%s", err, b.String())
	}
	return events
}

// named returns the events whose name starts with prefix.
func named(events []map[string]any, prefix string) []map[string]any {
	var out []map[string]any
	for _, e := range events {
		if name, _ := e["name"].(string); strings.HasPrefix(name, prefix) {
			out = append(out, e)
		}
	}
	return out
}

func TestWriteChromeTrace(t *testing.T) {
	rows := []struct {
		name    string
		entries []Entry
		evicted int64
		check   func(t *testing.T, events []map[string]any)
	}{
		{"spans-and-instants", []Entry{
			{Virtual: 0, Type: "arrival", Task: 1, Worker: -1},
			{Virtual: at(10 * usec), Type: "phase-start", Worker: -1},
			{Virtual: at(60 * usec), Type: "phase-end", Worker: -1, Dur: 50 * usec},
			{Virtual: at(60 * usec), Type: "deliver", Task: 1},
			{Virtual: at(60 * usec), Type: "exec", Task: 1, Dur: msec, Hit: true},
			{Virtual: at(2 * msec), Type: "purge", Task: 2, Worker: -1},
		}, 0, func(t *testing.T, events []map[string]any) {
			var phases, execs, instants, metas int
			for _, e := range events {
				switch e["ph"] {
				case "X":
					if e["cat"] == "scheduling" {
						phases++
						if e["dur"].(float64) != 50 || e["tid"].(float64) != hostTID {
							t.Errorf("phase span = %v, want 50µs on the host track", e)
						}
					} else {
						execs++
						if e["ts"].(float64) != 60 || e["name"] != "task 1" {
							t.Errorf("exec span = %v, want task 1 at 60µs", e)
						}
					}
				case "i":
					instants++
				case "M":
					metas++
				}
			}
			// Host and worker 0 thread names; nothing untracked, so no labels.
			if phases != 1 || execs != 1 || instants != 2 || metas != 2 {
				t.Errorf("phases=%d execs=%d instants=%d metas=%d, want 1/1/2/2", phases, execs, instants, metas)
			}
		}},
		{"empty", nil, 0, func(t *testing.T, events []map[string]any) {
			if len(events) != 1 || events[0]["ph"] != "M" {
				t.Errorf("empty journal rendered %v, want the host track alone", events)
			}
		}},
		{"live-kinds", []Entry{
			{Virtual: 0, Type: "phase-start", Worker: -1},
			{Virtual: at(50 * usec), Type: "phase-end", Worker: -1, Dur: 50 * usec},
			{Virtual: at(60 * usec), Type: "exec", Task: 1, Dur: msec, Hit: true},
			{Virtual: at(70 * usec), Type: "heartbeat", Worker: 1},
			{Virtual: at(2 * msec), Type: "worker-down", Worker: 1, Detail: "fatal: injected kill"},
			{Virtual: at(2 * msec), Type: "reroute", Task: 2, Worker: 1},
			{Virtual: at(2 * msec), Type: "lost", Task: 3, Worker: 1},
		}, 0, func(t *testing.T, events []map[string]any) {
			arg := func(e map[string]any, k string) any { m, _ := e["args"].(map[string]any); return m[k] }
			for _, want := range []struct {
				name, cat, argKey, argVal string
				tid                       float64
			}{
				{"heartbeat", "liveness", "", "", 1},
				{"worker 1 down", "failure", "reason", "fatal: injected kill", 1},
				{"reroute task 2", "failure", "from", "worker 1", hostTID},
				{"lost task 3", "failure", "task", "3", 1},
			} {
				got := named(events, want.name)
				if len(got) != 1 || got[0]["ph"] != "i" || got[0]["cat"] != want.cat || got[0]["tid"].(float64) != want.tid {
					t.Errorf("%s instant = %v, want one %s instant on track %v", want.name, got, want.cat, want.tid)
				} else if want.argKey != "" && arg(got[0], want.argKey) != want.argVal {
					t.Errorf("%s args = %v, want %s=%q", want.name, got[0]["args"], want.argKey, want.argVal)
				}
			}
			// Every event needs a pid for Perfetto to accept the file.
			for _, e := range events {
				if _, ok := e["pid"]; !ok {
					t.Errorf("event missing pid: %v", e)
				}
			}
		}},
		{"truncation-reported", []Entry{
			{Type: "run-start", Worker: -1},
			{Type: "exec", Task: 9, Dur: msec},
			{Type: "overload"},
		}, 7, func(t *testing.T, events []map[string]any) {
			labels := named(events, "process_labels")
			if len(labels) != 1 {
				t.Fatalf("want one process_labels event, got %v", labels)
			}
			got := labels[0]["args"].(map[string]any)["labels"]
			if got != "2 journal entries without a trace track omitted, 7 evicted" {
				t.Errorf("labels = %q", got)
			}
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) { r.check(t, chromeView(t, r.entries, r.evicted)) })
	}
}

func TestGantt(t *testing.T) {
	exec := func(start, dur time.Duration, task, worker int, hit bool) Entry {
		return Entry{Virtual: at(start), Type: "exec", Task: task, Worker: worker, Dur: dur, Hit: hit}
	}
	rows := []struct {
		name           string
		entries        []Entry
		workers, width int
		check          func(t *testing.T, out string, lines []string)
	}{
		{"hit-and-miss", []Entry{exec(0, 5*msec, 1, 0, true), exec(5*msec, 5*msec, 2, 1, false)}, 2, 40,
			func(t *testing.T, out string, lines []string) {
				if len(lines) != 3 || !strings.Contains(lines[1], "worker  0") || !strings.Contains(lines[2], "worker  1") {
					t.Fatalf("want a header and one row per worker:\n%s", out)
				}
				// Worker 0 is busy '#' for the first half and idle after;
				// worker 1's missed task is 'x'.
				if !strings.Contains(lines[1], "#") || strings.Contains(lines[1], "x") || !strings.Contains(lines[1], ".") {
					t.Errorf("worker 0 row wrong: %s", lines[1])
				}
				if !strings.Contains(lines[2], "x") {
					t.Errorf("worker 1 row wrong: %s", lines[2])
				}
			}},
		{"empty", nil, 2, 40, func(t *testing.T, out string, _ []string) {
			if !strings.Contains(out, "no executions") {
				t.Errorf("empty gantt output: %q", out)
			}
		}},
		{"default-width", []Entry{exec(0, msec, 1, 0, true)}, 1, 0, func(t *testing.T, out string, _ []string) {
			if !strings.Contains(out, "80 cols") {
				t.Errorf("default width not applied: %q", out)
			}
		}},
		{"live-kinds-ignored", []Entry{
			exec(0, 5*msec, 1, 0, true),
			{Virtual: at(msec), Type: "heartbeat", Worker: 1},
			{Virtual: at(20 * msec), Type: "worker-down", Worker: 1, Detail: "fatal"},
			{Virtual: at(30 * msec), Type: "reroute", Task: 2, Worker: 1},
		}, 2, 40, func(t *testing.T, out string, _ []string) {
			if !strings.Contains(out, "0 .. 5ms") {
				t.Errorf("gantt timeline polluted by non-exec entries:\n%s", out)
			}
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var b strings.Builder
			if err := Gantt(&b, r.entries, r.workers, r.width); err != nil {
				t.Fatal(err)
			}
			r.check(t, b.String(), strings.Split(strings.TrimSpace(b.String()), "\n"))
		})
	}
}
