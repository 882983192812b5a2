package livecluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtsads/internal/core"
	"rtsads/internal/policy"
	"rtsads/internal/simtime"
	"rtsads/internal/workload"
)

// quantumProbe is RT-SADS recording the quantum each phase was allocated.
type quantumProbe struct {
	core.Planner
	log *quantumLog
}

type quantumLog struct {
	mu     sync.Mutex
	quanta []time.Duration
}

func (p *quantumProbe) PlanPhase(in core.PhaseInput) (core.PhaseResult, error) {
	res, err := p.Planner.PlanPhase(in)
	p.log.mu.Lock()
	p.log.quanta = append(p.log.quanta, res.Quantum)
	p.log.mu.Unlock()
	return res, err
}

// The policy registry is process-wide, so the probe is registered once and
// pointed at the running test's log.
var (
	quantumProbeOnce sync.Once
	quantumProbeTo   atomic.Pointer[quantumLog]
)

const quantumProbeAlgorithm = "test-quantum-probe"

// TestLiveQuantumSizedByHost: a live planner sizes its quantum bounds from
// its own measured speed. The first phase has no sample and takes the
// experiments' 50–500 µs; from the second on, bursts at Scale 5 are planned
// under quanta sized for this host, below the experiments' floor.
func TestLiveQuantumSizedByHost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows the search tenfold: the host measured is not the one this test is about")
	}
	quantumProbeOnce.Do(func() {
		err := policy.Default().Register(policy.Spec{
			Name:        quantumProbeAlgorithm,
			Description: "RT-SADS recording each phase's quantum (tests only)",
			New: func(o policy.Options) (core.Planner, error) {
				inner, err := core.NewRTSADS(o.Search)
				if err != nil {
					return nil, err
				}
				return &quantumProbe{Planner: inner, log: quantumProbeTo.Load()}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	const bursts, burst = 4, 250
	p := liveParams(8)
	p.NumTransactions = bursts * burst
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, tk := range w.Tasks {
		// A burst every millisecond, each with 20 ms to finish.
		at := simtime.Instant(time.Duration(1+i/burst) * time.Millisecond)
		tk.Arrival, tk.Deadline = at, at.Add(20*time.Millisecond)
	}
	floor := core.DefaultBounds().Min
	onQuietBox(t, func() error {
		log := &quantumLog{}
		quantumProbeTo.Store(log)
		c, err := New(Config{Workload: w, Scale: 5, Algorithm: quantumProbeAlgorithm})
		if err != nil {
			t.Fatal(err)
		}
		res := runWithDeadline(t, c)
		if res.Hits == 0 {
			return fmt.Errorf("the burst hit nothing: %s", res)
		}
		log.mu.Lock()
		defer log.mu.Unlock()
		if len(log.quanta) < 2 {
			return fmt.Errorf("%d phases planned (%v), want one per burst at least: %s", len(log.quanta), log.quanta, res)
		}
		for j, q := range log.quanta[1:] {
			if q >= floor {
				return fmt.Errorf("phase %d of %d allocated %v, want below the experiments' floor %v", j+1, len(log.quanta), q, floor)
			}
		}
		return nil
	})
}
