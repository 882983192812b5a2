package core

import (
	"math"
	"testing"
	"time"

	"rtsads/internal/rng"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// The experiments' bounds are a host of 25 µs per phase and 1 µs per vertex.
func TestHostCostDefaultBounds(t *testing.T) {
	got := HostCost{Phase: float64(25 * us), Vertex: float64(us)}.Bounds()
	if got != DefaultBounds() {
		t.Fatalf("HostCost{25µs, 1µs}.Bounds() = %+v, want DefaultBounds() %+v", got, DefaultBounds())
	}
	if want := (Bounds{Min: 50 * us, Max: 500 * us}); got != want {
		t.Fatalf("DefaultBounds() = %+v, want %+v", got, want)
	}
}

func TestHostMeterUnsetBeforeSample(t *testing.T) {
	var m HostMeter
	if _, ok := m.Cost(); ok {
		t.Error("a meter with no sample reported a cost")
	}
	if b := m.Bounds(); b.Min != 0 || b.Max != 0 {
		t.Errorf("bounds before any sample %+v, want unset", b)
	}
	// A phase that expired before generating a vertex says nothing about
	// the vertex cost.
	m.Observe(300, 0, 0)
	if _, ok := m.Cost(); ok {
		t.Error("a phase with no vertices gave the meter a cost")
	}
}

// The meter recovers a host's phase and vertex cost from synthetic phases
// whose setup and per-vertex times jitter, a third of them cut short by
// their quantum (censored: the search stopped mid-batch, and its time is the
// quantum's, not the batch's).
func TestHostMeterRecoversCost(t *testing.T) {
	for _, host := range []struct {
		name          string
		phase, vertex float64 // ns of virtual time
	}{
		{"scale 5", 270, 1.3},
		{"scale 200", 6.75, 0.03},
		{"experiments", float64(25 * us), float64(us)},
	} {
		t.Run(host.name, func(t *testing.T) {
			src := rng.New(7)
			jitter := func() float64 { return 0.8 + 0.4*src.Float64() } // ±20 %
			var m HostMeter
			for j := 0; j < 2000; j++ {
				setup := host.phase * jitter()
				generated := 1 + src.Intn(2000)
				if j%3 == 0 {
					// Censored: the quantum ran out after a fraction of the
					// batch.
					generated = 1 + generated/10
				}
				search := float64(generated) * host.vertex * jitter()
				m.Observe(time.Duration(math.Round(setup)), time.Duration(math.Round(search)), generated)
			}
			c, ok := m.Cost()
			if !ok {
				t.Fatal("no cost after 2000 phases")
			}
			within := func(name string, got, want float64) {
				if math.Abs(got-want) > 0.1*want {
					t.Errorf("%s = %.4g ns, want %.4g ns within 10%%", name, got, want)
				}
			}
			within("Phase", c.Phase, host.phase)
			// The search times round to the nanosecond; at Scale 200 a
			// vertex is 0.03 ns, so only the sums hold the rate.
			within("Vertex", c.Vertex, host.vertex)
			if b := m.Bounds(); float64(b.Min) <= c.Phase || b.Max < b.Min {
				t.Errorf("bounds %+v for cost %+v: the floor must exceed the phase cost", b, c)
			}
		})
	}
}

// Measured bounds replace a bounded policy's configured ones; Fixed ignores
// them.
func TestPoliciesClampWithMeasuredBounds(t *testing.T) {
	in := PhaseInput{
		Batch:  []*task.Task{mkTask(1, ms, simtime.Instant(100*ms), 0)}, // slack 99ms
		Loads:  []time.Duration{0},
		Bounds: Bounds{Min: 300, Max: 900},
	}
	for _, pol := range []QuantumPolicy{NewAdaptive(), SlackOnly{Bounds: DefaultBounds()}} {
		if got := pol.Quantum(in); got != 900 {
			t.Errorf("%s = %v under measured bounds, want their ceiling 900ns", pol.Name(), got)
		}
	}
	if got := (LoadOnly{Bounds: DefaultBounds()}).Quantum(in); got != 300 {
		t.Errorf("load-only = %v under measured bounds, want their floor 300ns", got)
	}
	if got := (Fixed{D: 50 * us}).Quantum(in); got != 50*us {
		t.Errorf("fixed = %v, want its own 50µs", got)
	}
}

// A planner under a Clock meters itself: its first phase runs on the
// configured bounds, later ones on the bounds of the host it measured.
func TestClockedPlannerSizesItsOwnBounds(t *testing.T) {
	for name, mk := range map[string]func(SearchConfig) (Planner, error){
		"RT-SADS":    NewRTSADS,
		"EDF-greedy": NewEDFGreedy,
	} {
		t.Run(name, func(t *testing.T) {
			var now time.Duration
			cfg := testConfig(2)
			cfg.VertexCost = 0
			// Every read of the phase clock advances it 100ns: setup and each
			// of the expiry checks cost the same.
			cfg.Clock = func() time.Duration { now += 100; return now }
			p, err := mk(cfg)
			if err != nil {
				t.Fatal(err)
			}
			batch := []*task.Task{
				mkTask(1, ms, simtime.Instant(time.Second), 0),
				mkTask(2, ms, simtime.Instant(time.Second), 1),
			}
			var quanta []time.Duration
			for j := 0; j < 3; j++ {
				now = 0
				res, err := p.PlanPhase(PhaseInput{Batch: append([]*task.Task(nil), batch...), Loads: []time.Duration{0, 0}})
				if err != nil {
					t.Fatal(err)
				}
				quanta = append(quanta, res.Quantum)
			}
			if quanta[0] != DefaultBounds().Max {
				t.Errorf("first quantum %v, want the configured ceiling %v", quanta[0], DefaultBounds().Max)
			}
			for j, q := range quanta[1:] {
				if q >= DefaultBounds().Min {
					t.Errorf("phase %d quantum %v, want the measured host's, below %v", j+1, q, DefaultBounds().Min)
				}
			}
		})
	}
}

// Under a Clock a list planner spends wall time: Used comes from the clock
// and a quantum the clock has run through expires the phase.
func TestListPlannerChargesTheClock(t *testing.T) {
	for name, mk := range map[string]func(SearchConfig) (Planner, error){
		"EDF-greedy": NewEDFGreedy,
		"myopic":     func(c SearchConfig) (Planner, error) { return NewMyopic(c, 3, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			var now time.Duration
			cfg := testConfig(2)
			cfg.VertexCost = 0
			cfg.Policy = Fixed{D: 10 * us}
			cfg.Clock = func() time.Duration { now += 3 * us; return now }
			p, err := mk(cfg)
			if err != nil {
				t.Fatal(err)
			}
			batch := make([]*task.Task, 20)
			for i := range batch {
				batch[i] = mkTask(task.ID(i+1), ms, simtime.Instant(time.Second), 0)
			}
			res, err := p.PlanPhase(PhaseInput{Batch: batch, Loads: []time.Duration{0, 0}})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stats.Expired {
				t.Error("a quantum the clock ran through did not expire the phase")
			}
			if n := len(res.Schedule); n == 0 || n == len(batch) {
				t.Errorf("scheduled %d of %d tasks, want the clock to cut the phase short", n, len(batch))
			}
			if res.Used != 10*us {
				t.Errorf("Used = %v, want the clock's reading capped at the quantum, 10µs", res.Used)
			}
		})
	}
}

// A quantum at or below the phase cost schedules nothing, so the
// configuration is refused; the ablation's quanta and the live tests'
// one-microsecond quantum stay valid.
func TestValidateRefusesFloorAtPhaseCost(t *testing.T) {
	tests := []struct {
		name      string
		policy    QuantumPolicy
		phaseCost time.Duration
		ok        bool
	}{
		{"default bounds", NewAdaptive(), 25 * us, true},
		{"ablation fixed 50µs", Fixed{D: 50 * us}, 25 * us, true},
		{"live fixed 1µs, no phase cost", Fixed{D: us}, 0, true},
		{"fixed at the phase cost", Fixed{D: 25 * us}, 25 * us, false},
		{"fixed below the phase cost", Fixed{D: 10 * us}, 25 * us, false},
		{"fixed zero", Fixed{}, 0, false},
		{"floor at the phase cost", Adaptive{Bounds: Bounds{Min: 25 * us, Max: 500 * us}}, 25 * us, false},
		{"floor below the phase cost", SlackOnly{Bounds: Bounds{Min: 10 * us, Max: 100 * us}}, 25 * us, false},
		{"floor above the ceiling", LoadOnly{Bounds: Bounds{Min: 100 * us, Max: 50 * us}}, 0, false},
		{"negative floor", Adaptive{Bounds: Bounds{Min: -us, Max: 50 * us}}, 0, false},
		{"zero floor, no phase cost", Adaptive{Bounds: Bounds{Max: 50 * us}}, 0, false},
		{"measured-size bounds", Adaptive{Bounds: Bounds{Min: 300, Max: 900}}, 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := testConfig(2)
			c.Policy, c.PhaseCost = tt.policy, tt.phaseCost
			err := c.Validate()
			if tt.ok && err != nil {
				t.Errorf("valid quantum refused: %v", err)
			}
			if !tt.ok && err == nil {
				t.Error("a quantum that cannot cover the phase cost accepted")
			}
		})
	}
}
