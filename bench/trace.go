package main

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"rtsads/internal/core"
	"rtsads/internal/experiment"
	"rtsads/internal/livecluster"
	"rtsads/internal/policy"
)

// The traced run measures each layer from outside, through extension
// points the product already has: a planner registered under a bench name
// (policy.Default().Register), livecluster.Config.Backend, a journal big
// enough to keep every entry. The untraced run uses none of them.

// tracedAlgorithm is the registry name of RT-SADS wrapped in the timing
// decorator. Shard servers of the wire workload run in this process, so
// they resolve the name against the same registry.
const tracedAlgorithm experiment.Algorithm = "bench-traced-RT-SADS"

// planCall is one PlanPhase call as seen from outside.
type planCall struct {
	wall      time.Duration
	batch     int
	scheduled int
	expired   bool
}

// planLog collects the calls of every planner built while it is active.
type planLog struct {
	mu    sync.Mutex
	calls []planCall
}

func (l *planLog) add(c planCall) {
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
}

// timedPlanner times PlanPhase and forwards everything else.
type timedPlanner struct {
	core.Planner
	log *planLog
}

func (p *timedPlanner) PlanPhase(in core.PhaseInput) (core.PhaseResult, error) {
	batch := len(in.Batch)
	t0 := time.Now()
	out, err := p.Planner.PlanPhase(in)
	p.log.add(planCall{wall: time.Since(t0), batch: batch, scheduled: len(out.Schedule), expired: out.Stats.Expired})
	return out, err
}

// activePlanLog is where planners built under tracedAlgorithm report; the
// registry is process-wide, so the traced run points it at its own log.
var (
	activePlanLog   atomic.Pointer[planLog]
	registerTraced  sync.Once
	registerTracedE error
)

// ensureTracedPolicy registers tracedAlgorithm once per process.
func ensureTracedPolicy() error {
	registerTraced.Do(func() {
		registerTracedE = policy.Default().Register(policy.Spec{
			Name:        string(tracedAlgorithm),
			Description: "RT-SADS behind the benchmark's PlanPhase timer (traced runs only)",
			New: func(o policy.Options) (core.Planner, error) {
				inner, err := core.NewRTSADS(o.Search)
				if err != nil {
					return nil, err
				}
				return &timedPlanner{Planner: inner, log: activePlanLog.Load()}, nil
			},
		})
	})
	return registerTracedE
}

// deliverLog sums the Deliver calls of a timedBackend.
type deliverLog struct {
	mu   sync.Mutex
	wall time.Duration
	jobs int
}

// timedBackend times Deliver and forwards everything else.
type timedBackend struct {
	livecluster.Backend
	log *deliverLog
}

func (b *timedBackend) Deliver(proc int, jobs []livecluster.Job) error {
	t0 := time.Now()
	err := b.Backend.Deliver(proc, jobs)
	d := time.Since(t0)
	b.log.mu.Lock()
	b.log.wall += d
	b.log.jobs += len(jobs)
	b.log.mu.Unlock()
	return err
}

// tracer holds one traced repetition's collectors.
type tracer struct {
	plan    *planLog
	deliver *deliverLog
}

func newTracer() (*tracer, error) {
	if err := ensureTracedPolicy(); err != nil {
		return nil, err
	}
	tr := &tracer{plan: &planLog{}, deliver: &deliverLog{}}
	activePlanLog.Store(tr.plan)
	return tr, nil
}

// heapSampler polls the live heap while a traced region runs and keeps the
// peak; runtime/metrics reads do not stop the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				h.peak = max(h.peak, sample[0].Value.Uint64())
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the largest live heap it saw.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
