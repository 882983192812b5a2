package livecluster

import (
	"net"
	"testing"
	"time"

	"rtsads/internal/db"
	"rtsads/internal/experiment"
	"rtsads/internal/faultinject"
	"rtsads/internal/simtime"
	"rtsads/internal/workload"
)

// liveParams is a small workload that a live run finishes in well under a
// second of wall time.
func liveParams(workers int) workload.Params {
	p := workload.DefaultParams(workers)
	p.NumTransactions = 60
	p.DB = db.Config{SubDBs: 4, TuplesPerSub: 200, DomainSize: 10, KeyAttr: 0}
	return p
}

func TestClock(t *testing.T) {
	if _, err := NewClock(0); err == nil {
		t.Error("zero scale accepted")
	}
	clock, err := NewClock(2)
	if err != nil {
		t.Fatal(err)
	}
	a := clock.Now()
	time.Sleep(10 * time.Millisecond)
	b := clock.Now()
	elapsed := b.Sub(a)
	// 10ms wall at scale 2 is ~5ms virtual; allow generous slop.
	if elapsed < 3*time.Millisecond || elapsed > 20*time.Millisecond {
		t.Errorf("virtual elapsed %v, want ~5ms", elapsed)
	}
	target := clock.Now().Add(4 * time.Millisecond)
	clock.SleepUntil(target)
	if clock.Now().Before(target) {
		t.Error("SleepUntil returned early")
	}
}

func TestClockAt(t *testing.T) {
	start := time.Now().Add(-time.Second)
	clock, err := NewClockAt(start, 1)
	if err != nil {
		t.Fatal(err)
	}
	if clock.Now() < simtime.Instant(900*time.Millisecond) {
		t.Errorf("shared-epoch clock reads %v, want ~1s", clock.Now())
	}
	if clock.Start() != start || clock.Scale() != 1 {
		t.Error("accessors wrong")
	}
}

func TestWorkerHoldsPlacementReplicas(t *testing.T) {
	w, err := workload.Generate(liveParams(3))
	if err != nil {
		t.Fatal(err)
	}
	clock, err := NewClock(1)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 3; id++ {
		wk := NewWorker(id, clock, w)
		for sub, set := range w.Placement {
			if got, want := wk.HasReplica(sub), set.Has(id); got != want {
				t.Errorf("worker %d replica of sub %d = %v, placement says %v", id, sub, got, want)
			}
		}
	}
}

func TestWorkerExecutesJobs(t *testing.T) {
	w, err := workload.Generate(liveParams(2))
	if err != nil {
		t.Fatal(err)
	}
	clock, err := NewClock(1)
	if err != nil {
		t.Fatal(err)
	}
	wk := NewWorker(0, clock, w)
	jobs := make(chan Job, 2)
	done := make(chan Done, 2)
	go func() {
		wk.Run(jobs, done)
		close(done)
	}()
	tk := w.Tasks[0]
	jobs <- Job{Task: int32(tk.ID), Txn: tk.Payload, Proc: tk.Proc, Deadline: simtime.Never}
	jobs <- Job{Task: 999, Txn: -1, Proc: time.Millisecond, Deadline: simtime.Never} // invalid txn
	close(jobs)

	first := <-done
	if first.Task != int32(tk.ID) || first.Err != "" {
		t.Fatalf("first completion: %+v", first)
	}
	if !first.Hit {
		t.Error("job with no deadline pressure missed")
	}
	if first.Finish.Sub(first.Start) < tk.Proc {
		t.Errorf("job occupied %v, want at least %v", first.Finish.Sub(first.Start), tk.Proc)
	}
	second := <-done
	if second.Err == "" {
		t.Error("invalid transaction did not report an error")
	}
	if _, open := <-done; open {
		t.Error("done channel not closed after Run returned")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing workload accepted")
	}
	w, err := workload.Generate(liveParams(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Workload: w, Scale: -1}); err == nil {
		t.Error("negative scale accepted")
	}
	c, err := New(Config{Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.Algorithm != experiment.RTSADS || c.cfg.Scale != 20 || c.cfg.Policy == nil {
		t.Error("defaults not applied")
	}
}

func TestClusterRunInProcess(t *testing.T) {
	w, err := workload.Generate(liveParams(4))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Workload: w, Scale: 50})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != len(w.Tasks) {
		t.Fatalf("total = %d, want %d", res.Total, len(w.Tasks))
	}
	if got := res.Hits + res.ScheduledMissed + res.Purged; got != res.Total {
		t.Errorf("accounting: %d hits + %d schedMissed + %d purged != %d total",
			res.Hits, res.ScheduledMissed, res.Purged, res.Total)
	}
	if res.Hits == 0 {
		t.Error("live cluster completed nothing by deadline")
	}
	// Wall-clock jitter can cause occasional misses of scheduled tasks at
	// high load, but at scale 50 they must stay rare.
	if float64(res.ScheduledMissed) > 0.1*float64(res.Total) {
		t.Errorf("too many scheduled misses under jitter: %d of %d", res.ScheduledMissed, res.Total)
	}
	if res.Phases == 0 || res.SchedulingTime <= 0 {
		t.Errorf("no scheduling activity recorded: %s", res)
	}
}

func TestClusterRunAllAlgorithms(t *testing.T) {
	for _, algo := range experiment.Algorithms() {
		algo := algo
		t.Run(string(algo), func(t *testing.T) {
			t.Parallel()
			w, err := workload.Generate(liveParams(3))
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(Config{Workload: w, Scale: 50, Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Hits == 0 {
				t.Errorf("%s completed nothing", algo)
			}
		})
	}
}

func TestClusterUnknownAlgorithm(t *testing.T) {
	w, err := workload.Generate(liveParams(2))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Workload: w, Algorithm: "bogus"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err == nil {
		t.Error("unknown algorithm accepted at run time")
	}
}

func TestClusterRunTCP(t *testing.T) {
	const workers = 3
	p := liveParams(workers)
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}

	// Start one TCP worker per processor on loopback.
	addrs := make([]string, workers)
	serveErr := make(chan error, workers)
	for i := 0; i < workers; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		addrs[i] = lis.Addr().String()
		go func() { serveErr <- ServeWorker(lis) }()
	}

	c, err := New(Config{
		Workload: w,
		Scale:    50,
		Backend: func(clock *Clock, inj *faultinject.Injector) (Backend, error) {
			return NewTCPBackend(clock, w, addrs, TCPOptions{Inject: inj})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits == 0 {
		t.Error("TCP cluster completed nothing")
	}
	if got := res.Hits + res.ScheduledMissed + res.Purged; got != res.Total {
		t.Errorf("accounting: %d != total %d", got, res.Total)
	}
	for i := 0; i < workers; i++ {
		select {
		case err := <-serveErr:
			if err != nil {
				t.Errorf("worker exited with: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("worker did not exit after bye")
		}
	}
}

func TestTCPBackendAddressMismatch(t *testing.T) {
	w, err := workload.Generate(liveParams(3))
	if err != nil {
		t.Fatal(err)
	}
	clock, err := NewClock(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTCPBackend(clock, w, []string{"127.0.0.1:1"}, TCPOptions{}); err == nil {
		t.Error("address/worker count mismatch accepted")
	}
}

func TestChannelBackendDeliverRange(t *testing.T) {
	w, err := workload.Generate(liveParams(2))
	if err != nil {
		t.Fatal(err)
	}
	clock, err := NewClock(1)
	if err != nil {
		t.Fatal(err)
	}
	b := NewChannelBackend(clock, w, nil, nil)
	if err := b.Deliver(5, nil); err == nil {
		t.Error("out-of-range worker accepted")
	}
	if err := b.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if _, open := <-b.Done(); open {
		t.Error("done channel not closed")
	}
}

func TestWallBudget(t *testing.T) {
	clock, err := NewClock(2)
	if err != nil {
		t.Fatal(err)
	}
	budget := clock.WallBudget()
	a := budget()
	time.Sleep(5 * time.Millisecond)
	b := budget()
	if b <= a {
		t.Error("wall budget did not advance")
	}
	// Scale 2: 5ms wall is ~2.5ms virtual; allow slop.
	if d := b - a; d < time.Millisecond || d > 20*time.Millisecond {
		t.Errorf("budget elapsed %v, want ~2.5ms", d)
	}
}

func TestTCPDeliverOutOfRange(t *testing.T) {
	w, err := workload.Generate(liveParams(1))
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	serveErr := make(chan error, 1)
	go func() { serveErr <- ServeWorker(lis) }()
	clock, err := NewClock(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPBackend(clock, w, []string{lis.Addr().String()}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Deliver(5, nil); err == nil {
		t.Error("out-of-range worker accepted")
	}
	if err := b.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	<-serveErr
}

// TestLoadChangedCoalesces: an externally-fed cluster raises LoadChanged
// when its published load view moves, and the host loop never waits for a
// receiver — with none (an in-process shard) a whole run's publications
// collapse into the one buffered tick, and the view it announces is the
// final one.
func TestLoadChangedCoalesces(t *testing.T) {
	w, err := workload.Generate(liveParams(2))
	if err != nil {
		t.Fatal(err)
	}
	clock, err := NewClock(5)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(Config{Workload: w, Clock: clock, Scale: 5, External: true})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-cl.LoadChanged():
		t.Fatal("tick pending before the host loop published anything")
	default:
	}
	done := make(chan error, 1)
	go func() {
		_, err := cl.Run()
		done <- err
	}()
	for _, t0 := range w.Tasks {
		c := *t0
		c.Arrival = clock.Now()
		c.Deadline = c.Arrival.Add(time.Second)
		if err := cl.Submit(&c); err != nil {
			t.Fatal(err)
		}
	}
	cl.Seal()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not finish with nobody receiving LoadChanged")
	}
	select {
	case <-cl.LoadChanged():
	default:
		t.Fatal("no tick pending after a run that published changing views")
	}
	select {
	case <-cl.LoadChanged():
		t.Fatal("more than one tick buffered")
	default:
	}
	if s := cl.LoadSummary(); !s.Sealed || s.Backlog != 0 || s.Inflight != 0 {
		t.Fatalf("final view %+v, want sealed and drained", s)
	}
}
