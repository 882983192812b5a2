package livecluster

import (
	"testing"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/metrics"
	"rtsads/internal/rng"
	"rtsads/internal/workload"
)

func TestClusterOverloadConfigValidation(t *testing.T) {
	w, err := workload.Generate(liveParams(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Workload: w, Admission: admission.Config{QueueCap: -1}}); err == nil {
		t.Error("negative queue cap accepted")
	}
}

// TestClusterAdmissionHopeless makes every arrival hopeless (each deadline
// falls half a processing time after arrival) and checks the end-to-end
// path: every task is shed at the front door with the hopeless reason,
// nothing is admitted, and the books still balance.
func TestClusterAdmissionHopeless(t *testing.T) {
	w, err := workload.Generate(liveParams(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range w.Tasks {
		tk.Deadline = tk.Arrival.Add(tk.Proc / 2)
	}
	c, err := New(Config{
		Workload:  w,
		Scale:     50,
		Admission: admission.Config{RejectHopeless: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runWithDeadline(t, c)

	if res.Shed != res.Total || res.ShedHopeless != res.Total {
		t.Errorf("shed = %d (hopeless %d), want all %d tasks", res.Shed, res.ShedHopeless, res.Total)
	}
	if res.Admitted != 0 {
		t.Errorf("admitted = %d, want 0 when everything is hopeless", res.Admitted)
	}
	if res.Hits != 0 {
		t.Errorf("hits = %d, want 0", res.Hits)
	}
	assertFaultAccounting(t, res)
}

// TestClusterAdmissionQueueCap drives a one-worker cluster with a tiny
// ready-queue cap: the bounded queue must evict
// under the shed-oldest policy, everything admitted or shed must reconcile,
// and the run must terminate rather than buffer the burst.
func TestClusterAdmissionQueueCap(t *testing.T) {
	w, err := workload.Generate(faultParams(1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Workload:  w,
		Scale:     50,
		Admission: admission.Config{Policy: admission.ShedOldest, QueueCap: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runWithDeadline(t, c)

	if res.ShedQueueFull == 0 {
		t.Error("a 2-deep queue absorbed a 60-task burst without shedding")
	}
	if res.Admitted == 0 {
		t.Error("nothing admitted")
	}
	if res.Admitted+res.ShedHopeless+res.ShedShutdown != res.Total {
		t.Errorf("admission gate leaked: admitted %d + rejected-at-gate %d != total %d",
			res.Admitted, res.ShedHopeless+res.ShedShutdown, res.Total)
	}
	assertFaultAccounting(t, res)
}

// TestClusterStopBeforeRun requests shutdown before the run starts: the
// host must shed the whole workload with the shutting-down reason and
// return immediately.
func TestClusterStopBeforeRun(t *testing.T) {
	w, err := workload.Generate(liveParams(2))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Workload: w, Scale: 50})
	if err != nil {
		t.Fatal(err)
	}
	c.Stop(0)
	c.Stop(time.Hour) // idempotent: only the first call's grace applies
	res := runWithDeadline(t, c)

	if res.ShedShutdown != res.Total {
		t.Errorf("shed shutting-down = %d, want all %d tasks", res.ShedShutdown, res.Total)
	}
	if res.Hits != 0 || res.Admitted != 0 {
		t.Errorf("hits %d admitted %d after stop-before-run, want 0/0", res.Hits, res.Admitted)
	}
	assertFaultAccounting(t, res)
}

// TestClusterStopMidRun interrupts a live run: the host must stop
// admitting, drain within the grace, and return with balanced books.
func TestClusterStopMidRun(t *testing.T) {
	w, err := workload.Generate(liveParams(2))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Workload: w, Scale: 200}) // slow the run so the stop lands mid-flight
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *metrics.RunResult
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := c.Run()
		ch <- outcome{res, err}
	}()
	time.Sleep(30 * time.Millisecond)
	c.Stop(500 * time.Millisecond)
	stopAt := time.Now()

	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if wall := time.Since(stopAt); wall > 10*time.Second {
			t.Errorf("drain took %v after stop", wall)
		}
		assertFaultAccounting(t, o.res)
	case <-time.After(30 * time.Second):
		t.Fatal("cluster did not stop within the drain grace")
	}
}

// TestRedialJitterBackoff drives the redial loop with a fake sleep: the
// recorded delays must follow the jittered exponential schedule — each
// drawn from [backoff/2, backoff) with the backoff doubling — and must be
// reproducible from the worker's deterministic jitter stream.
func TestRedialJitterBackoff(t *testing.T) {
	var delays []time.Duration
	b := &TCPBackend{
		live:  Liveness{Redials: 3, RedialBackoff: 80 * time.Millisecond}.WithDefaults(),
		conns: []*workerConn{{addr: "127.0.0.1:1"}}, // nothing listens: every dial fails fast
	}
	b.sleep = func(d time.Duration) bool {
		delays = append(delays, d)
		return true
	}
	if b.redial(0) {
		t.Fatal("redial succeeded against a dead address")
	}
	if len(delays) != 3 {
		t.Fatalf("recorded %d delays, want one per redial attempt (3)", len(delays))
	}
	ref := rng.New(RedialJitterSeed + 0)
	backoff := b.live.RedialBackoff
	for i, d := range delays {
		if d < backoff/2 || d >= backoff {
			t.Errorf("attempt %d slept %v, want within [%v, %v)", i, d, backoff/2, backoff)
		}
		if want := jitterBackoff(ref, backoff); d != want {
			t.Errorf("attempt %d slept %v, want deterministic %v", i, d, want)
		}
		backoff *= 2
	}

	// Worker streams are decorrelated: two workers redialing after the same
	// network event must not sleep in lockstep.
	a, z := rng.New(RedialJitterSeed+0), rng.New(RedialJitterSeed+1)
	same := 0
	for i := 0; i < 8; i++ {
		if jitterBackoff(a, time.Second) == jitterBackoff(z, time.Second) {
			same++
		}
	}
	if same == 8 {
		t.Error("per-worker jitter streams are identical")
	}

	// A stop request mid-backoff aborts the redial without sleeping again.
	delays = delays[:0]
	b.sleep = func(d time.Duration) bool {
		delays = append(delays, d)
		return false
	}
	if b.redial(0) {
		t.Fatal("redial reported success after a stop")
	}
	if len(delays) != 1 {
		t.Errorf("stop mid-backoff still recorded %d sleeps, want 1", len(delays))
	}
}

// TestBackoffCapAndDeterminism pins the Backoff schedule: delays double
// from base, each drawn from [d/2, d), and stop growing at the cap; the
// same seed reproduces the same sequence exactly, and a base above the cap
// is clamped down to it.
func TestBackoffCapAndDeterminism(t *testing.T) {
	base, cap := 50*time.Millisecond, 200*time.Millisecond
	a := NewBackoff(7, base, cap)
	b := NewBackoff(7, base, cap)
	want := base
	for i := 0; i < 8; i++ {
		d := a.Next()
		if d < want/2 || d >= want {
			t.Errorf("draw %d = %v, want within [%v, %v)", i, d, want/2, want)
		}
		if d2 := b.Next(); d2 != d {
			t.Errorf("draw %d: same seed diverged, %v vs %v", i, d, d2)
		}
		want *= 2
		if want > cap {
			want = cap
		}
	}

	if d := NewBackoff(1, time.Second, 100*time.Millisecond).Next(); d >= 100*time.Millisecond {
		t.Errorf("base above cap drew %v, want under the 100ms cap", d)
	}
	if d := NewBackoff(1, 0, 0).Next(); d < 25*time.Millisecond || d >= 50*time.Millisecond {
		t.Errorf("zero base drew %v, want within the 50ms default's [25ms, 50ms)", d)
	}
}
