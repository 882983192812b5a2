package federation

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/db"
	"rtsads/internal/faultinject"
	"rtsads/internal/machine"
	"rtsads/internal/obs"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// steadyTasks is n transactions arriving as a Poisson stream that loads
// eight workers to about 0.8, the shape of the live benchmark's steady
// workloads: the rate, and so the tasks a shard holds at once, does not
// depend on n.
func steadyTasks(t *testing.T, n int) *workload.Workload {
	t.Helper()
	p := workload.DefaultParams(8)
	p.NumTransactions = n
	p.Arrival = workload.Poisson
	p.MeanInterArrival = 80 * time.Microsecond
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// heldHighWater replays one shard's journal: an arrival takes a task into
// the shard and each terminal entry settles one, so the high-water mark is
// the most tasks the shard held at once — its batch and its tasks in
// flight.
func heldHighWater(t *testing.T, o *obs.Observer) int {
	t.Helper()
	entries, evicted := o.Journal().Export()
	if evicted != 0 {
		t.Fatalf("the journal evicted %d entries; the replay needs all of them", evicted)
	}
	held, high := 0, 0
	for i := range entries {
		switch entries[i].Type {
		case "arrival":
			held++
			high = max(high, held)
		case "exec", "purge", "shed", "bounce", "lost":
			held--
		}
	}
	if held != 0 {
		t.Errorf("the journal leaves %d tasks unsettled", held)
	}
	return high
}

// shardSlots is one shard's slot use after a drained run.
type shardSlots struct{ carved, live, high int }

// checkSlotsTrackInFlight runs the same steady stream at two lengths ten
// times apart and checks every shard's task storage: nothing is held after
// the drain, and the slots carved never exceed the most tasks the shard held
// at once (plus the one a host takes just before booking its arrival). That
// count follows the load, not the run: the longer run carves fewer slots per
// shard than a tenth of its tasks, where storage kept for the run would hold
// about half of them.
func checkSlotsTrackInFlight(t *testing.T, run func(w *workload.Workload, journalCap int) []shardSlots) {
	for _, n := range []int{2000, 20000} {
		for i, s := range run(steadyTasks(t, n), 8*n+4096) {
			t.Logf("n=%d shard %d: %d slots carved, %d live, held at most %d tasks", n, i, s.carved, s.live, s.high)
			if s.live != 0 {
				t.Errorf("n=%d shard %d: %d slots still hold a task after the drain", n, i, s.live)
			}
			if s.carved == 0 || s.carved > s.high+1 {
				t.Errorf("n=%d shard %d: %d slots carved for at most %d tasks held", n, i, s.carved, s.high)
			}
			if n == 20000 && s.carved >= n/10 {
				t.Errorf("shard %d: %d slots carved for %d tasks — storage grows with the run", i, s.carved, n)
			}
		}
	}
}

// TestFederationSlotsTrackTasksInFlight: an in-process federation's shards
// hold only the tasks in their batches and in flight.
func TestFederationSlotsTrackTasksInFlight(t *testing.T) {
	checkSlotsTrackInFlight(t, func(w *workload.Workload, journalCap int) []shardSlots {
		f, err := New(Config{
			Workload:   w,
			Topology:   Topology{Shards: 2, WorkersPerShard: 4},
			Placement:  AffinityFirst,
			Migrate:    true,
			Scale:      1,
			JournalCap: journalCap,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Reconcile(); err != nil {
			t.Fatal(err)
		}
		out := make([]shardSlots, len(f.handles))
		for i, h := range f.handles {
			out[i].carved, out[i].live = h.(*localShard).cl.TaskSlots()
			out[i].high = heldHighWater(t, f.ShardObserver(i))
		}
		return out
	})
}

// TestServeShardSlotsTrackTasksInFlight is the same over two wire sessions
// on loopback: a shard server decodes each Submit frame into one reused
// batch and holds only the tasks in its batch and in flight.
func TestServeShardSlotsTrackTasksInFlight(t *testing.T) {
	checkSlotsTrackInFlight(t, func(w *workload.Workload, journalCap int) []shardSlots {
		const shards = 2
		out := make([]shardSlots, shards)
		addrs := make([]string, shards)
		observers := make([]*obs.Observer, shards)
		var wg sync.WaitGroup
		for i := range shards {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			addrs[i] = ln.Addr().String()
			o := obs.New(journalCap)
			observers[i] = o
			wg.Add(1)
			go func() {
				defer wg.Done()
				nc, err := ln.Accept()
				if err != nil {
					t.Error(err)
					return
				}
				defer nc.Close()
				srv, runErrc, err := openShard(nc, ServeShardOptions{Obs: o})
				if err != nil {
					t.Error(err)
					return
				}
				if err := srv.serve(runErrc); err != nil {
					t.Error(err)
				}
				out[i].carved, out[i].live = srv.cl.TaskSlots()
			}()
		}
		f, err := New(Config{
			Workload:   w,
			Topology:   Topology{Shards: shards, WorkersPerShard: 4},
			Placement:  AffinityFirst,
			Migrate:    true,
			Scale:      1,
			JournalCap: journalCap,
			ShardAddrs: addrs,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Reconcile(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		for i, o := range observers {
			out[i].high = heldHighWater(t, o)
		}
		return out
	})
}

// checkSlotsFree fails unless the host holds no task and its free list
// holds each carved slot exactly once: taking as many tasks as it carved
// hands out distinct slots and carves none.
func checkSlotsFree(t *testing.T, name string, h *machine.Host) {
	t.Helper()
	carved, live := h.TaskSlots()
	if live != 0 {
		t.Errorf("%s: %d of %d slots still hold a task", name, live, carved)
	}
	seen := make(map[*task.Task]bool, carved)
	for range carved {
		s := h.Take(&task.Task{})
		if seen[s] {
			t.Fatalf("%s: the free list holds slot %p twice", name, s)
		}
		seen[s] = true
	}
	if c, _ := h.TaskSlots(); c != carved {
		t.Errorf("%s: retaking %d freed slots carved %d", name, carved, c)
	}
}

// TestSimulateReleasesEverySlot runs Simulate through every path that
// settles a task away from a worker — admission bounces, migrations, a
// shard kill that salvages its batch and strands the tasks still handed to
// it, and a rejoin — and checks that each shard's host released every slot
// exactly once, with the books still reconciling.
func TestSimulateReleasesEverySlot(t *testing.T) {
	p := workload.DefaultParams(4)
	p.NumTransactions = 300
	p.SF = 2
	p.Arrival = workload.Poisson
	p.MeanInterArrival = 60 * time.Microsecond
	p.DB = db.Config{SubDBs: 4, TuplesPerSub: 200, DomainSize: 10, KeyAttr: 0}
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	f, err := newSim(SimConfig{
		Workload:  w,
		Topology:  Topology{Shards: 2, WorkersPerShard: 2},
		Placement: LeastCE,
		Migrate:   true,
		Admission: admission.Config{Policy: admission.ShedLeastSlack, QueueCap: 6, RejectHopeless: true},
		ShardEvents: []ShardEvent{
			{At: w.Tasks[len(w.Tasks)/3].Arrival, Shard: 1, Kind: ShardKill},
			{At: w.Tasks[2*len(w.Tasks)/3].Arrival, Shard: 1, Kind: ShardRejoin},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.run()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Reconcile(); err != nil {
		t.Fatal(err)
	}
	c := res.Combined()
	if res.Migrated == 0 || res.Salvaged+res.SalvageLost == 0 || c.Shed == 0 || c.Bounced == 0 {
		t.Fatalf("want migrations, salvages, sheds and bounces to exercise every release: %+v", res)
	}
	for i, sh := range f.shards {
		checkSlotsFree(t, fmt.Sprintf("shard %d", i), &sh.host)
	}
}

// TestFederationFaultsReleaseEverySlot kills a worker of each in-process
// shard mid-run: the host reclaims its jobs and reroutes or loses them,
// and every slot is still released exactly once — the books reconcile and
// nothing is held after the drain.
func TestFederationFaultsReleaseEverySlot(t *testing.T) {
	p := workload.DefaultParams(4)
	p.NumTransactions = 120
	p.SF = 4
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faultinject.Parse("kill=0@2ms;kill=2@2ms")
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{
		Workload:  w,
		Topology:  Topology{Shards: 2, WorkersPerShard: 2},
		Placement: AffinityFirst,
		Migrate:   true,
		Scale:     20,
		Faults:    plan,
		Admission: admission.Config{Policy: admission.Reject, QueueCap: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if c := res.Combined(); c.Rerouted+c.LostToFailure == 0 {
		t.Fatalf("want reclaimed tasks: %s", c)
	}
	for i, h := range f.handles {
		if carved, live := h.(*localShard).cl.TaskSlots(); carved == 0 || live != 0 {
			t.Errorf("shard %d: %d slots carved, %d still held after the drain", i, carved, live)
		}
	}
}
