package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"rtsads/internal/experiment"
	"rtsads/internal/faultinject"
	"rtsads/internal/federation"
	"rtsads/internal/livecluster"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/stats"
	"rtsads/internal/workload"
)

// settleTimeout bounds the wait for every task to reach a terminal bucket
// after the last submission; a run that hits it had a backlog it could not
// drain, and every one of its tasks counts as failed.
const settleTimeout = 20 * time.Second

// session is one live run about to happen: a federation (in-process or
// wire shards) or a single seeded cluster, over one rung's task list.
type session struct {
	w     *workload.Workload
	scale float64
	fed   *federation.Federation
	cl    *livecluster.Cluster
	o     *obs.Observer // the single cluster's observer
}

// newSession builds the product objects for one repetition of a rung. With
// a tracer it swaps in the timing planner, a journal large enough to keep
// every entry, and (single cluster only, the one place the product takes a
// Backend) the timing backend.
func (p *livePrep) newSession(rung int, tr *tracer) (*session, error) {
	r := p.rungs[rung]
	s := &session{w: r.w, scale: r.scale}
	algo := experiment.RTSADS
	jcap := p.jcap
	if tr != nil {
		algo = tracedAlgorithm
		if !p.tcp {
			// Room for every entry of the run, so nothing is evicted. The
			// wire workload keeps its small ring (see tcpJournalCap) and
			// runs few enough traced tasks to fit it.
			jcap = 12*len(r.w.Tasks) + 4096
		}
	}
	if p.name == wlBurst {
		s.o = obs.New(jcap)
		cfg := livecluster.Config{Workload: r.w, Algorithm: algo, Scale: r.scale, Obs: s.o}
		if tr != nil {
			cfg.Backend = func(clock *livecluster.Clock, inj *faultinject.Injector) (livecluster.Backend, error) {
				return &timedBackend{
					Backend: livecluster.NewBoundedChannelBackend(clock, r.w, 0, inj, s.o),
					log:     tr.deliver,
				}, nil
			}
		}
		cl, err := livecluster.New(cfg)
		if err != nil {
			return nil, err
		}
		s.cl = cl
		return s, nil
	}
	tp, err := federation.SplitWorkers(numWorkers, numShards)
	if err != nil {
		return nil, err
	}
	cfg := federation.Config{
		Workload:      r.w,
		Topology:      tp,
		Placement:     federation.AffinityFirst,
		Migrate:       true,
		Algorithm:     algo,
		Scale:         r.scale,
		JournalCap:    jcap,
		SettleTimeout: settleTimeout,
	}
	if p.tcp {
		cfg.Liveness = tcpLiveness
	}
	for _, ln := range p.lns {
		cfg.ShardAddrs = append(cfg.ShardAddrs, ln.Addr().String())
	}
	f, err := federation.New(cfg)
	if err != nil {
		return nil, err
	}
	s.fed = f
	return s, nil
}

// liveResult is one repetition's outcome and raw material.
type liveResult struct {
	tasks   int
	scale   float64
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	gcPause time.Duration

	combined *metrics.RunResult
	fed      *federation.Result
	entries  []obs.Entry
	evicted  int64

	// err is a run error, a Reconcile error or unbalanced books; any of
	// them fails every task of the repetition.
	err error
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run executes the session once. The timed region is the product's own Run
// call: wall, CPU, allocation and GC pause are read immediately around it,
// and the journal is exported only afterwards.
func (s *session) run() liveResult {
	out := liveResult{tasks: len(s.w.Tasks), scale: s.scale}
	runtime.GC() // start every repetition from a collected heap
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := processCPU()
	t0 := time.Now()
	if s.cl != nil {
		out.combined, out.err = s.cl.Run()
	} else {
		out.fed, out.err = s.fed.Run()
	}
	out.wall = time.Since(t0)
	out.cpu = processCPU() - c0
	runtime.ReadMemStats(&m1)
	out.alloc = m1.TotalAlloc - m0.TotalAlloc
	out.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	if out.err != nil {
		return out
	}
	if s.cl != nil {
		out.entries, out.evicted = s.o.Journal().Export()
		out.err = balanced(out.combined, out.tasks)
		return out
	}
	// Run seals the shards once every task has settled, or when the settle
	// timeout runs out first: then there was a backlog it could not drain.
	lastDue := time.Duration(float64(s.w.Tasks[len(s.w.Tasks)-1].Arrival) * s.scale)
	if out.wall >= lastDue+settleTimeout {
		out.err = fmt.Errorf("backlog not drained %v after the last arrival", settleTimeout)
		return out
	}
	out.combined = out.fed.Combined()
	out.entries, out.evicted = s.fed.MergedEntries()
	if out.err = out.fed.Reconcile(); out.err == nil {
		out.err = balanced(out.combined, out.tasks)
	}
	return out
}

// balanced checks that the terminal buckets account for every task
// attempted, exactly once.
func balanced(r *metrics.RunResult, tasks int) error {
	sum := r.Hits + r.Purged + r.ScheduledMissed + r.LostToFailure + r.Shed
	if r.Total != tasks || sum != tasks {
		return fmt.Errorf("books do not balance: hits=%d purged=%d schedMissed=%d lost=%d shed=%d total=%d, attempted %d",
			r.Hits, r.Purged, r.ScheduledMissed, r.LostToFailure, r.Shed, r.Total, tasks)
	}
	return nil
}

func (r *liveResult) cpuMicrosPerTask() float64 {
	return float64(r.cpu) / 1e3 / float64(r.tasks)
}

// repMetrics are the end-to-end numbers of one repetition.
type repMetrics struct {
	guarantee, kept, tasksPerS, cpuUs, allocB float64
	dispatchP50, dispatchP95                  float64
	dispatchN                                 int
	latenessP99                               float64
}

func (r *liveResult) endToEnd(tasks taskIndex) repMetrics {
	c := r.combined
	m := repMetrics{
		guarantee: float64(c.Hits) / float64(r.tasks),
		tasksPerS: float64(r.tasks) / r.wall.Seconds(),
		cpuUs:     r.cpuMicrosPerTask(),
		allocB:    float64(r.alloc) / float64(r.tasks),
	}
	if run := c.Hits + c.ScheduledMissed; run > 0 {
		m.kept = float64(c.Hits) / float64(run)
	}
	sp := assembleSpans(r.entries, tasks, r.scale)
	d := sp.dispatchMicros()
	m.dispatchN = len(d)
	m.dispatchP50 = percentile(d, 0.50)
	m.dispatchP95 = percentile(d, 0.95)
	m.latenessP99 = percentile(sp.latenessMicros(), 0.99)
	return m
}

// medianOf is the median of f over the repetitions.
func medianOf(reps []repMetrics, f func(repMetrics) float64) float64 {
	xs := make([]float64, len(reps))
	for i, m := range reps {
		xs[i] = f(m)
	}
	return stats.Median(xs)
}

// runRep builds a session for one repetition of a rung (the one set-up
// built, the first time the untraced reference rung asks), runs it and
// books it: the tasks count as attempted, and a run, Reconcile, balance or
// shard-session error fails all of them. The returned error is a set-up
// failure; a failed run is in the result's err.
func (p *livePrep) runRep(rung int, tr *tracer, rep *report, label string) (liveResult, error) {
	s := p.first
	if s != nil && rung == p.refIdx && tr == nil {
		p.first = nil
	} else {
		var err error
		if s, err = p.newSession(rung, tr); err != nil {
			return liveResult{}, err
		}
	}
	res := s.run()
	rep.attempted += res.tasks
	for _, err := range p.serveErrors() {
		if res.err == nil {
			res.err = fmt.Errorf("shard session: %w", err)
		}
	}
	if res.err != nil {
		rep.failed += res.tasks
		rep.fail("%s %s: %v", p.name, label, res.err)
	}
	return res, nil
}

// untracedLive measures a live workload's end-to-end metrics: every rung,
// the reference rung three times, no bench instrumentation anywhere.
func untracedLive(p *livePrep, rep *report) error {
	if err := p.reference(); err != nil {
		return err
	}
	var ladder []rateRung
	var refReps []repMetrics
	for i, rg := range p.rungs {
		tasks := indexTasks(rg.w.Tasks)
		var ratios []float64
		for k := 0; k < rg.reps; k++ {
			res, err := p.runRep(i, nil, rep, fmt.Sprintf("%s rep %d", rg.name, k))
			if err != nil {
				return err
			}
			if res.err != nil {
				continue
			}
			m := res.endToEnd(tasks)
			ratios = append(ratios, m.guarantee)
			rep.note("%s %s rep %d: %d tasks in %.2fs, guarantee %.4f (model %.4f), kept %.4f, cpu %.1f us/task, dispatch n=%d p50 %.1f p95 %.1f us, lateness p99 %.0f us, evicted %d",
				p.name, rg.name, k, res.tasks, res.wall.Seconds(), m.guarantee, rg.ref, m.kept, m.cpuUs,
				m.dispatchN, m.dispatchP50, m.dispatchP95, m.latenessP99, res.evicted)
			if i == p.refIdx {
				refReps = append(refReps, m)
			}
		}
		// A repetition that failed — a run or Reconcile error, or a backlog
		// the shards had not drained when SettleTimeout sealed them — fails
		// its rung's limit; the rung does not drop out of the ladder.
		rung := rateRung{rate: offeredRate(rg.w.Tasks, rg.scale)}
		if len(ratios) == rg.reps {
			rung.margin = stats.Median(ratios) / (0.90 * rg.ref)
		}
		ladder = append(ladder, rung)
	}
	if len(refReps) == 0 {
		return fmt.Errorf("%s: no repetition of the reference rate succeeded", p.name)
	}
	rep.set("guarantee_ratio", medianOf(refReps, func(m repMetrics) float64 { return m.guarantee }))
	rep.set("sched_kept_ratio", medianOf(refReps, func(m repMetrics) float64 { return m.kept }))
	rep.set("tasks_per_s", medianOf(refReps, func(m repMetrics) float64 { return m.tasksPerS }))
	rep.set("alloc_bytes_per_task", medianOf(refReps, func(m repMetrics) float64 { return m.allocB }))
	if len(p.rungs) > 1 {
		sort.Slice(ladder, func(a, b int) bool { return ladder[a].rate < ladder[b].rate })
		rep.set("sustained_rate", sustainedRate(ladder))
	} else {
		// One rate, no ladder: the rate of tasks finished inside their
		// deadline at that rate.
		rep.set("sustained_rate", medianOf(refReps, func(m repMetrics) float64 { return m.guarantee * m.tasksPerS }))
	}
	return nil
}
