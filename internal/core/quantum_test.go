package core

import (
	"math/rand/v2"
	"testing"
	"time"

	"rtsads/internal/search"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// refMinSlack is Min_Slack by a full scan: the smallest slack less the
// margin, floored at zero.
func refMinSlack(in PhaseInput) time.Duration {
	if len(in.Batch) == 0 {
		return 0
	}
	min := in.Batch[0].Slack(in.Now)
	for _, t := range in.Batch[1:] {
		min = simtime.MinDur(min, t.Slack(in.Now))
	}
	return simtime.NonNeg(min - in.Margin)
}

// refQuantum is each policy's quantum from full scans of slack and load.
func refQuantum(pol QuantumPolicy, in PhaseInput) time.Duration {
	load := minLoad(in)
	switch p := pol.(type) {
	case Adaptive:
		return in.Bounds.or(p.Bounds).clamp(simtime.MaxDur(refMinSlack(in), load))
	case SlackOnly:
		return in.Bounds.or(p.Bounds).clamp(refMinSlack(in))
	case LoadOnly:
		return in.Bounds.or(p.Bounds).clamp(load)
	case Fixed:
		return p.D
	}
	panic("unknown policy")
}

// The Min_Slack reference on fixed batches: an empty batch has none, and a
// negative slack floors at zero.
func TestRefMinSlack(t *testing.T) {
	if got := refMinSlack(PhaseInput{}); got != 0 {
		t.Errorf("empty batch: Min_Slack %v, want 0", got)
	}
	in := PhaseInput{Batch: []*task.Task{
		mkTask(1, ms, simtime.Instant(10*ms), 0),  // slack 9ms
		mkTask(2, 4*ms, simtime.Instant(6*ms), 0), // slack 2ms
		mkTask(3, ms, simtime.Instant(50*ms), 0),  // slack 49ms
	}}
	if got := refMinSlack(in); got != 2*ms {
		t.Errorf("Min_Slack %v, want 2ms", got)
	}
	in.Now = simtime.Instant(5 * ms) // task 2's slack is -3ms
	if got := refMinSlack(in); got != 0 {
		t.Errorf("Min_Slack at 5ms %v, want 0", got)
	}
	for _, floor := range []time.Duration{0, ms} {
		if got := minSlack(in, floor); got != 0 {
			t.Errorf("minSlack(floor %v) at 5ms = %v, want 0", floor, got)
		}
	}
}

// Property: every policy's quantum, with its Min_Slack scan stopped at the
// clamp, equals the full-scan reference — over random batches with Never
// deadlines and negative slacks, margins, unreachable workers, and both the
// configured and measured bounds.
func TestQuantumMatchesFullScan(t *testing.T) {
	r := rand.New(rand.NewPCG(39, 1))
	policies := []QuantumPolicy{
		NewAdaptive(),
		SlackOnly{Bounds: DefaultBounds()},
		LoadOnly{Bounds: DefaultBounds()},
		Fixed{D: 100 * us},
	}
	var stopped, scanned int
	for trial := 0; trial < 4000; trial++ {
		// Half the trials draw whole microseconds, so that slacks, loads and
		// the default bounds often tie exactly at the stop.
		unit := time.Duration(1)
		if trial%2 == 0 {
			unit = us
		}
		draw := func(max time.Duration) time.Duration { return time.Duration(r.Int64N(int64(max/unit))) * unit }
		in := PhaseInput{Now: simtime.Instant(draw(10 * ms))}
		for i, n := 0, r.IntN(40); i < n; i++ {
			proc := draw(500 * us)
			// Slacks from -300µs to 1.2ms straddle the 50–500µs bounds.
			d := in.Now.Add(proc + draw(1500*us) - 300*us)
			if r.IntN(8) == 0 {
				d = simtime.Never
			}
			in.Batch = append(in.Batch, &task.Task{ID: task.ID(i), Proc: proc, Deadline: d})
		}
		for k, n := 0, 1+r.IntN(8); k < n; k++ {
			l := draw(700 * us)
			if r.IntN(10) == 0 {
				l = search.Unreachable
			}
			in.Loads = append(in.Loads, l)
		}
		in.Margin = []time.Duration{0, us, 25 * us}[r.IntN(3)]
		if r.IntN(2) == 0 {
			in.Bounds = HostCost{Phase: r.Float64() * float64(30*us), Vertex: r.Float64() * float64(2*us)}.Bounds()
		}
		for _, pol := range policies {
			if got, want := pol.Quantum(in), refQuantum(pol, in); got != want {
				t.Fatalf("trial %d %s: quantum %v, full scan %v (margin %v, bounds %+v)", trial, pol.Name(), got, want, in.Margin, in.Bounds)
			}
		}
		if got, want := minSlack(in, 0), refMinSlack(in); got != want {
			t.Fatalf("trial %d: minSlack at floor 0 = %v, want the exact %v", trial, got, want)
		}
		if floor := in.Bounds.or(DefaultBounds()).Min; refMinSlack(in) <= floor && len(in.Batch) > 1 {
			stopped++
		} else {
			scanned++
		}
	}
	// Both sides of the stop must be exercised.
	if stopped < 100 || scanned < 100 {
		t.Fatalf("%d trials reached the floor and %d did not; the fixture needs both", stopped, scanned)
	}
}

// Property: read from the keys a batch holds (task.Batch.LatestStarts), the
// Min_Slack scan gives what it gives reading every task's Slack, at every
// floor and under every policy — over random batches with Never deadlines,
// negative slacks and margins, in EDF and LLF order.
func TestMinSlackFromKeysMatchesTasks(t *testing.T) {
	r := rand.New(rand.NewPCG(41, 2))
	policies := []QuantumPolicy{NewAdaptive(), SlackOnly{Bounds: DefaultBounds()}}
	for trial := 0; trial < 2000; trial++ {
		draw := func(max time.Duration) time.Duration { return time.Duration(r.Int64N(int64(max/us))) * us }
		now := simtime.Instant(draw(10 * ms))
		var tasks []*task.Task
		for i, n := 0, r.IntN(40); i < n; i++ {
			proc := draw(500 * us)
			d := now.Add(proc + draw(1500*us) - 300*us)
			if r.IntN(8) == 0 {
				d = simtime.Never
			}
			tasks = append(tasks, &task.Task{ID: task.ID(i), Proc: proc, Deadline: d})
		}
		b := task.NewBatch(tasks...)
		b.Order(task.Priority(trial % 2))
		in := PhaseInput{Now: now, Batch: b.Tasks(), Loads: []time.Duration{draw(700 * us)}, Margin: []time.Duration{0, us, 25 * us}[r.IntN(3)]}
		keyed := in
		keyed.Late = b.LatestStarts()
		for _, floor := range []time.Duration{0, draw(600 * us), DefaultBounds().Min} {
			if got, want := minSlack(keyed, floor), minSlack(in, floor); got != want {
				t.Fatalf("trial %d floor %v: minSlack from keys %v, from tasks %v", trial, floor, got, want)
			}
		}
		for _, pol := range policies {
			if got, want := pol.Quantum(keyed), refQuantum(pol, in); got != want {
				t.Fatalf("trial %d %s: quantum from keys %v, full scan %v", trial, pol.Name(), got, want)
			}
		}
	}
}
