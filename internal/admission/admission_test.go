package admission

import (
	"testing"
	"time"

	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// tk builds a task with the given id, arrival, processing cost and deadline.
func tk(id task.ID, arrival simtime.Instant, proc, ttl time.Duration) *task.Task {
	return &task.Task{ID: id, Arrival: arrival, Proc: proc, Deadline: arrival.Add(ttl)}
}

func mustNew(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return c
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range []Policy{Reject, ShedOldest, ShedLeastSlack} {
		got, err := ParsePolicy(p.String())
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", p.String(), err)
		}
		if got != p {
			t.Fatalf("ParsePolicy(%q) = %v, want %v", p.String(), got, p)
		}
	}
	if _, err := ParsePolicy("drop-all"); err == nil {
		t.Fatal("ParsePolicy accepted an unknown policy")
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{QueueCap: -1}).Validate(); err == nil {
		t.Error("negative QueueCap accepted")
	}
	if err := (Config{Policy: Policy(99)}).Validate(); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := New(Config{QueueCap: -1}); err == nil {
		t.Error("New accepted an invalid config")
	}
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config reports Enabled")
	}
	if !(Config{QueueCap: 1}).Enabled() || !(Config{RejectHopeless: true}).Enabled() {
		t.Error("non-zero config reports disabled")
	}
}

// A hopeless task — deadline closer than its own processing time — must be
// rejected at the door, and only when the feasibility test is enabled.
func TestHopelessRejection(t *testing.T) {
	now := simtime.Instant(0)
	hopeless := tk(1, now, 10*time.Millisecond, 5*time.Millisecond)
	fine := tk(2, now, 10*time.Millisecond, 50*time.Millisecond)
	exact := tk(3, now, 10*time.Millisecond, 10*time.Millisecond)

	c := mustNew(t, Config{RejectHopeless: true})
	if d := c.Admit(hopeless, now, nil); d.Admit || d.Reason != Hopeless {
		t.Errorf("hopeless task: got %+v, want rejection with Hopeless", d)
	}
	if d := c.Admit(fine, now, nil); !d.Admit {
		t.Errorf("feasible task rejected: %+v", d)
	}
	// now + p == d is still feasible — the bound is strict After.
	if d := c.Admit(exact, now, nil); !d.Admit {
		t.Errorf("exactly-feasible task rejected: %+v", d)
	}

	off := mustNew(t, Config{})
	if d := off.Admit(hopeless, now, nil); !d.Admit {
		t.Errorf("hopeless test fired while disabled: %+v", d)
	}
}

func TestRejectPolicyAtCap(t *testing.T) {
	now := simtime.Instant(0)
	queue := []*task.Task{
		tk(1, 0, time.Millisecond, 100*time.Millisecond),
		tk(2, 0, time.Millisecond, 100*time.Millisecond),
	}
	c := mustNew(t, Config{Policy: Reject, QueueCap: 2})
	d := c.Admit(tk(3, now, time.Millisecond, 100*time.Millisecond), now, queue)
	if d.Admit || d.Reason != QueueFull || d.Victim != nil {
		t.Errorf("reject policy at cap: got %+v, want QueueFull rejection", d)
	}
	// Below cap everything is admitted.
	d = c.Admit(tk(4, now, time.Millisecond, 100*time.Millisecond), now, queue[:1])
	if !d.Admit || d.Victim != nil {
		t.Errorf("below cap: got %+v, want plain admit", d)
	}
}

func TestShedOldestEvictsEarliestArrival(t *testing.T) {
	now := simtime.Instant(30 * int64(time.Millisecond))
	old := tk(5, simtime.Instant(1*int64(time.Millisecond)), time.Millisecond, 200*time.Millisecond)
	newer := tk(4, simtime.Instant(20*int64(time.Millisecond)), time.Millisecond, 200*time.Millisecond)
	queue := []*task.Task{newer, old}
	c := mustNew(t, Config{Policy: ShedOldest, QueueCap: 2})
	d := c.Admit(tk(9, now, time.Millisecond, 200*time.Millisecond), now, queue)
	if !d.Admit || d.Victim != old {
		t.Errorf("shed-oldest: got %+v, want victim %v", d, old.ID)
	}
}

func TestShedOldestTieBreaksByID(t *testing.T) {
	now := simtime.Instant(0)
	a := tk(7, 0, time.Millisecond, 100*time.Millisecond)
	b := tk(3, 0, time.Millisecond, 100*time.Millisecond)
	c := mustNew(t, Config{Policy: ShedOldest, QueueCap: 2})
	d := c.Admit(tk(9, now, time.Millisecond, 100*time.Millisecond), now, []*task.Task{a, b})
	if !d.Admit || d.Victim != b {
		t.Errorf("tie: got victim %+v, want ID 3", d.Victim)
	}
}

// shed-least-slack evicts the queued deadline-loser when the arriving task
// has more slack, and rejects the arrival when it is itself the worst.
func TestShedLeastSlack(t *testing.T) {
	now := simtime.Instant(0)
	tight := tk(1, 0, time.Millisecond, 5*time.Millisecond)   // slack 4ms
	loose := tk(2, 0, time.Millisecond, 100*time.Millisecond) // slack 99ms
	queue := []*task.Task{loose, tight}
	c := mustNew(t, Config{Policy: ShedLeastSlack, QueueCap: 2})

	arriving := tk(3, 0, time.Millisecond, 50*time.Millisecond) // slack 49ms
	d := c.Admit(arriving, now, queue)
	if !d.Admit || d.Victim != tight {
		t.Errorf("arriving has more slack: got %+v, want victim %v", d, tight.ID)
	}

	worst := tk(4, 0, time.Millisecond, 2*time.Millisecond) // slack 1ms < everyone
	d = c.Admit(worst, now, queue)
	if d.Admit || d.Reason != QueueFull {
		t.Errorf("arriving is worst: got %+v, want QueueFull rejection", d)
	}
}

// Equal slack between victim candidate and arrival: the queued task wins
// eviction only on lower ID, otherwise the arrival is rejected — either way
// exactly one task is shed and the decision is deterministic.
func TestShedLeastSlackEqualSlack(t *testing.T) {
	now := simtime.Instant(0)
	queued := tk(2, 0, time.Millisecond, 10*time.Millisecond)
	c := mustNew(t, Config{Policy: ShedLeastSlack, QueueCap: 1})

	higher := tk(9, 0, time.Millisecond, 10*time.Millisecond) // same slack, higher ID
	if d := c.Admit(higher, now, []*task.Task{queued}); !d.Admit || d.Victim != queued {
		t.Errorf("equal slack, queued has lower ID: got %+v, want evict queued", d)
	}
	lower := tk(1, 0, time.Millisecond, 10*time.Millisecond) // same slack, lower ID
	if d := c.Admit(lower, now, []*task.Task{queued}); d.Admit {
		t.Errorf("equal slack, arrival has lower ID: got %+v, want reject arrival", d)
	}
}

// A nil controller and a zero-cap shed policy must both admit everything —
// the opt-out paths existing callers rely on.
func TestDisabledPaths(t *testing.T) {
	now := simtime.Instant(0)
	t1 := tk(1, now, time.Hour, time.Millisecond) // wildly hopeless
	var nilC *Controller
	if d := nilC.Admit(t1, now, nil); !d.Admit {
		t.Errorf("nil controller rejected: %+v", d)
	}
	c := mustNew(t, Config{Policy: ShedLeastSlack})
	big := make([]*task.Task, 100)
	for i := range big {
		big[i] = tk(task.ID(i+10), 0, time.Millisecond, 100*time.Millisecond)
	}
	if d := c.Admit(tk(1, now, time.Millisecond, 100*time.Millisecond), now, big); !d.Admit || d.Victim != nil {
		t.Errorf("zero cap sheds: %+v", d)
	}
}

// Determinism: the same inputs always yield the same decision.
func TestAdmitDeterministic(t *testing.T) {
	now := simtime.Instant(0)
	queue := []*task.Task{
		tk(1, 0, time.Millisecond, 7*time.Millisecond),
		tk(2, 0, time.Millisecond, 9*time.Millisecond),
		tk(3, 0, time.Millisecond, 5*time.Millisecond),
	}
	c := mustNew(t, Config{Policy: ShedLeastSlack, QueueCap: 3})
	arr := tk(4, 0, time.Millisecond, 8*time.Millisecond)
	first := c.Admit(arr, now, queue)
	for i := 0; i < 50; i++ {
		if got := c.Admit(arr, now, queue); got != first {
			t.Fatalf("iteration %d: decision %+v differs from first %+v", i, got, first)
		}
	}
}
