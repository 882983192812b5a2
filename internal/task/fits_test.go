package task_test

import (
	"math"
	"testing"
	"time"

	"rtsads/internal/search"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

func TestFits(t *testing.T) {
	const (
		ms = time.Millisecond
		us = time.Microsecond
	)
	p := ms
	wrapped := time.Duration(math.MaxInt64)
	wrapped += p // a saturated load plus a task: the sum wraps negative
	at := func(d time.Duration) simtime.Instant { return simtime.Instant(d) }
	cases := []struct {
		name     string
		start    simtime.Instant
		se       time.Duration
		margin   time.Duration
		deadline simtime.Instant
		want     bool
	}{
		{"exact equality fits", at(ms), 2 * ms, 0, at(3 * ms), true},
		{"one ns over", at(ms), 2 * ms, 0, at(3*ms - 1), false},
		{"margin kept exactly", at(ms), 2 * ms, 25 * us, at(3*ms + 25*us), true},
		{"margin one ns short", at(ms), 2 * ms, 25 * us, at(3*ms + 25*us - 1), false},
		{"margin breaks a zero-slack fit", at(ms), 2 * ms, us, at(3 * ms), false},
		{"unreachable load", at(ms), search.Unreachable + p, 0, at(time.Hour), false},
		{"unreachable load, margin", at(ms), search.Unreachable + p, 200 * us, at(time.Hour), false},
		{"wrapped sum", at(ms), wrapped, 0, at(time.Hour), false},
		{"wrapped sum, no deadline", at(ms), wrapped, 0, simtime.Never, false},
		{"margin wraps the sum", at(ms), math.MaxInt64 - 100*us, 200 * us, simtime.Never, false},
		{"no deadline", at(ms), time.Hour, 200 * us, simtime.Never, true},
		{"no deadline, saturating start", simtime.Never - 1, time.Hour, 200 * us, simtime.Never, true},
	}
	for _, c := range cases {
		if got := task.Fits(c.start, c.se, c.margin, c.deadline); got != c.want {
			t.Errorf("%s: Fits(%v, %v, %v, %v) = %v, want %v", c.name, c.start, c.se, c.margin, c.deadline, got, c.want)
		}
	}
}

// TestLatestStartAgreesWithMissed: d - p is the last instant a task is not
// missed.
func TestLatestStartAgreesWithMissed(t *testing.T) {
	tk := &task.Task{ID: 1, Proc: 2 * time.Millisecond, Deadline: simtime.Instant(10 * time.Millisecond)}
	ls := tk.LatestStart()
	if ls != simtime.Instant(8*time.Millisecond) {
		t.Fatalf("LatestStart = %v, want T+8ms", ls)
	}
	if tk.Missed(ls) {
		t.Error("missed at its latest start")
	}
	if !tk.Missed(ls + 1) {
		t.Error("not missed one ns past its latest start")
	}
	never := &task.Task{ID: 2, Proc: time.Millisecond, Deadline: simtime.Never}
	if never.LatestStart() != simtime.Never {
		t.Errorf("LatestStart with no deadline = %v, want Never", never.LatestStart())
	}
}
