package main

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/federation"
	"rtsads/internal/federation/wire"
	"rtsads/internal/obs"
	"rtsads/internal/represent"
	"rtsads/internal/search"
	"rtsads/internal/simtime"
	"rtsads/internal/stats"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// The ladder rungs: each calls one layer's public functions in a loop over
// the workload's own task list, with nothing else running, so a rung prices
// that layer's work per task and nothing around it. Every rung runs on
// every workload — also on those whose path skips the layer — because the
// inputs differ (ten vertices a task against seven hundred) even where the
// code is the same.

// perOp returns the wall nanoseconds one operation takes: f performs ops
// operations per call and is repeated for budget, split into five rounds
// whose median is reported.
func perOp(budget time.Duration, ops int, f func()) float64 {
	const rounds = 5
	xs := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		n := 0
		t0 := time.Now()
		for {
			f()
			n += ops
			if time.Since(t0) >= budget/rounds {
				break
			}
		}
		xs = append(xs, float64(time.Since(t0))/float64(n))
	}
	return stats.Median(xs)
}

// rungInputs is what the rungs need from a workload.
type rungInputs struct {
	w *workload.Workload
	// batch is the number of tasks the front door hands a shard at once:
	// two on the Poisson workloads, a whole burst on the bursty ones.
	batch  int
	budget time.Duration // per rung
}

// runRungs measures every rung and stores the values under their metric
// names.
func runRungs(in rungInputs, rep *report) error {
	if len(in.w.Tasks) == 0 {
		return fmt.Errorf("rungs: empty task list")
	}
	rep.set("admission.admit_ns", admitRung(in))
	pick, err := pickRung(in)
	if err != nil {
		return err
	}
	rep.set("federation.pick_ns_per_task", pick)
	fedsim, err := fedsimRung(in)
	if err != nil {
		return err
	}
	rep.set("fedsim.us_per_task", fedsim)
	wireRungs(in, rep)
	rtt, err := frameRTTRung(in)
	if err != nil {
		return err
	}
	rep.set("wire.frame_rtt_us", rtt)
	expand, vps, err := searchRungs(in)
	if err != nil {
		return err
	}
	rep.set("search.expand_ns", expand)
	rep.set("search.vertices_per_s", vps)
	mach, err := machineRung(in)
	if err != nil {
		return err
	}
	rep.set("machine.us_per_task", mach)
	exec, err := dbRung(in)
	if err != nil {
		return err
	}
	rep.set("db.execute_ns", exec)
	rep.set("obs.journal_record_ns", journalRung(in))
	return nil
}

// admitRung: Controller.Admit on the slow path — hopeless test, then a
// full 64-deep queue scanned for the least-slack victim.
func admitRung(in rungInputs) float64 {
	const depth = 64
	ctrl, err := admission.New(admission.Config{
		Policy: admission.ShedLeastSlack, QueueCap: depth, RejectHopeless: true,
	})
	if err != nil {
		return 0
	}
	ts := in.w.Tasks
	queue := ts[:min(depth, len(ts))]
	admitted := 0
	return perOp(in.budget, len(ts), func() {
		for _, t := range ts {
			if ctrl.Admit(t, t.Arrival, queue).Admit {
				admitted++
			}
		}
	})
}

// pickRung: the router's per-task work on a view snapshot — project the
// task onto each shard, Placement.Pick, LocalizeInto an arena slot.
func pickRung(in rungInputs) (float64, error) {
	w := in.w
	tp, err := federation.SplitWorkers(w.Params.Workers, numShards)
	if err != nil {
		return 0, err
	}
	views := make([]federation.ShardView, tp.Shards)
	for i := range views {
		views[i] = federation.ShardView{Alive: tp.WorkersPerShard, QueuedWork: time.Duration(i+1) * time.Millisecond}
	}
	var slot task.Task
	return perOp(in.budget, len(w.Tasks), func() {
		for i := range views {
			views[i].Submitted = 0
		}
		for _, t := range w.Tasks {
			for i := range views {
				ov := tp.Overlap(t, i)
				views[i].Overlap, views[i].Comm = ov, 0
				if ov == 0 {
					views[i].Comm = w.Cost.Remote
				}
			}
			s := max(federation.AffinityFirst.Pick(t, views, nil), 0)
			views[s].Submitted++
			federation.LocalizeInto(&slot, t, tp, s)
		}
	}), nil
}

// fedsimRung: the deterministic federation model on the same list, host
// microseconds per task.
func fedsimRung(in rungInputs) (float64, error) {
	var xs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := fedSimulate(in.w); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t0))/1e3/float64(len(in.w.Tasks)))
	}
	return stats.Median(xs), nil
}

// batches cuts the task list the way the front door would submit it.
func batches(ts []*task.Task, size int) [][]*task.Task {
	var out [][]*task.Task
	for len(ts) > 0 {
		n := min(size, len(ts))
		out = append(out, ts[:n])
		ts = ts[n:]
	}
	return out
}

// wireRungs: the RTFW Submit codec with no socket — encode into a reused
// buffer as the router does, decode into fresh tasks as the shard server
// does.
func wireRungs(in rungInputs, rep *report) {
	bs := batches(in.w.Tasks, in.batch)
	n := len(in.w.Tasks)
	var buf []byte
	rep.set("wire.encode_ns_per_task", perOp(in.budget, n, func() {
		for _, b := range bs {
			buf = wire.AppendSubmit(buf[:0], b)
		}
	}))
	payloads := make([][]byte, len(bs))
	bytes := 0
	for i, b := range bs {
		payloads[i] = wire.AppendSubmit(nil, b)
		bytes += len(payloads[i]) + 5 // frame header: 4-byte length, 1-byte type
	}
	alloc := func() *task.Task { return new(task.Task) }
	decode := func() {
		for _, p := range payloads {
			if _, err := wire.DecodeSubmit(p, alloc); err != nil {
				panic(err) // our own encoding
			}
		}
	}
	rep.set("wire.decode_ns_per_task", perOp(in.budget, n, decode))
	rep.set("wire.bytes_per_task", float64(bytes)/float64(n))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, b := range bs {
		buf = wire.AppendSubmit(buf[:0], b)
	}
	decode()
	runtime.ReadMemStats(&m1)
	rep.set("wire.allocs_per_batch", float64(m1.Mallocs-m0.Mallocs)/float64(len(bs)))
}

// frameRTTRung: one Submit frame written, echoed and read back over a
// loopback socket — the framing and the kernel, no shard behind it.
func frameRTTRung(in rungInputs) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		conn := wire.NewConn(c)
		for {
			typ, body, err := conn.ReadFrame()
			if err != nil {
				return
			}
			if conn.WriteFrame(typ, body) != nil {
				return
			}
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	conn := wire.NewConn(nc)
	payload := wire.AppendSubmit(nil, in.w.Tasks[:min(in.batch, len(in.w.Tasks))])
	var rtts []float64
	for t0 := time.Now(); time.Since(t0) < in.budget; {
		s := time.Now()
		if err := conn.WriteFrame(wire.TypeSubmit, payload); err != nil {
			return 0, err
		}
		if _, _, err := conn.ReadFrame(); err != nil {
			return 0, err
		}
		rtts = append(rtts, micros(time.Since(s)))
	}
	nc.Close()
	<-echoDone
	sort.Float64s(rtts)
	return percentile(rtts, 0.5), nil
}

// burstProblem is one scheduling phase over the list's first burstSize
// tasks, all present at time zero with the relative deadlines the
// generator gave them: the experiment defaults, 1 µs per vertex inside a
// 500 µs quantum.
func burstProblem(w *workload.Workload) *search.Problem {
	n := min(burstSize, len(w.Tasks))
	batch := make([]*task.Task, n)
	for i, t := range w.Tasks[:n] {
		c := *t
		c.Arrival, c.Deadline = 0, simtime.Instant(t.Deadline.Sub(t.Arrival))
		batch[i] = &c
	}
	task.SortEDF(batch)
	cost := w.Cost
	return &search.Problem{
		Quantum:    500 * time.Microsecond,
		Tasks:      batch,
		Workers:    w.Params.Workers,
		BaseLoad:   make([]time.Duration, w.Params.Workers),
		Comm:       func(t *task.Task, proc int) time.Duration { return cost.Cost(t.Affinity, proc) },
		VertexCost: time.Microsecond,
	}
}

// searchRungs: one expansion of the root (expand_ns), and whole
// quantum-bounded searches (vertices generated per host second).
func searchRungs(in rungInputs) (expandNs, verticesPerS float64, err error) {
	p := burstProblem(in.w)
	rep := represent.NewAssignment()
	root := rep.Root(p)
	st := search.NewPathState(p)
	expandNs = perOp(in.budget, 1, func() {
		succs, _ := rep.Expand(p, root, st)
		for _, s := range succs {
			search.FreeVertex(s)
		}
		search.PutSuccs(succs)
	})
	generated := 0
	var runErr error
	nsPerRun := perOp(in.budget, 1, func() {
		res, err := search.Run(p, rep)
		if err != nil {
			runErr = err
			return
		}
		generated = res.Stats.Generated
		res.Release()
	})
	if runErr != nil {
		return 0, 0, runErr
	}
	return expandNs, float64(generated) / nsPerRun * 1e9, nil
}

// machineRung: the virtual machine's whole phase loop on the list, host
// microseconds per task.
func machineRung(in rungInputs) (float64, error) {
	var xs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := machineRun(in.w); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t0))/1e3/float64(len(in.w.Tasks)))
	}
	return stats.Median(xs), nil
}

// dbRung: what a worker really computes per job — the transaction against
// its sub-database.
func dbRung(in rungInputs) (float64, error) {
	w := in.w
	n := len(w.Tasks)
	var execErr error
	ns := perOp(in.budget, n, func() {
		for _, t := range w.Tasks {
			q := w.Txn(t)
			if _, err := w.DB.Execute(w.DB.Subs[q.Sub], q); err != nil {
				execErr = err
			}
		}
	})
	return ns, execErr
}

// journalRung: one lifecycle entry stamped and recorded into a ring at the
// product's default capacity, evicting once full, as in a long run.
func journalRung(in rungInputs) float64 {
	j := obs.NewJournal(0)
	e := obs.Entry{Type: "deliver", Task: 1, Worker: 1, Phase: 1}
	return perOp(in.budget, 1, func() {
		e.Wall = time.Now()
		j.Record(e)
	})
}
