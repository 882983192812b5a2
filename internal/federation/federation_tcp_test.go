package federation

import (
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/core"
	"rtsads/internal/federation/wire"
	"rtsads/internal/livecluster"
	"rtsads/internal/obs"
	"rtsads/internal/policy"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// shardFarm runs loopback shard servers — the test-local stand-in for N
// `rtcluster -shard-listen` processes. Kill severs a shard's live session
// at the TCP layer, which is indistinguishable from the process dying as
// far as the router is concerned.
type shardFarm struct {
	addrs []string

	mu    sync.Mutex
	conns []net.Conn // latest accepted connection per shard
	wg    sync.WaitGroup
}

func newShardFarm(t *testing.T, n int) *shardFarm {
	t.Helper()
	farm := &shardFarm{addrs: make([]string, n), conns: make([]net.Conn, n)}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen shard %d: %v", i, err)
		}
		t.Cleanup(func() { ln.Close() })
		farm.addrs[i] = ln.Addr().String()
		farm.wg.Add(1)
		go func(i int) {
			defer farm.wg.Done()
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				farm.mu.Lock()
				farm.conns[i] = c
				farm.mu.Unlock()
				// Serve each session in its own goroutine: a rejoin dial after
				// a kill models a restarted shard process, whose listener is
				// not gated on the dead process finishing its shutdown.
				farm.wg.Add(1)
				go func() {
					defer farm.wg.Done()
					_ = ServeShard(c, ServeShardOptions{})
				}()
			}
		}(i)
	}
	return farm
}

// kill severs shard i's current session mid-run.
func (farm *shardFarm) kill(i int) {
	farm.mu.Lock()
	c := farm.conns[i]
	farm.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// TestFederationLiveTCPTwoShards is the out-of-process differential of
// TestFederationLiveTwoShards: the same workload routed to two shard
// servers over the wire protocol must settle every task, reconcile the
// federation books, and keep the merged lifecycle journal span-complete.
func TestFederationLiveTCPTwoShards(t *testing.T) {
	p := workload.DefaultParams(4)
	p.NumTransactions = 48
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	farm := newShardFarm(t, 2)
	f, err := New(Config{
		Workload:   w,
		Topology:   Topology{Shards: 2, WorkersPerShard: 2},
		Placement:  AffinityFirst,
		Migrate:    true,
		Scale:      200,
		Admission:  admission.Config{Policy: admission.Reject, QueueCap: 8},
		SlackGuard: 25 * time.Microsecond,
		ShardAddrs: farm.addrs,
		JournalCap: 4096,
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := res.Reconcile(); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	if res.Routed != len(w.Tasks) {
		t.Errorf("routed %d of %d tasks", res.Routed, len(w.Tasks))
	}
	if got := res.Combined().ScheduledMissed; got != 0 {
		t.Errorf("%d scheduled tasks missed their deadlines over TCP; want 0", got)
	}
	// Remote shard counters arrive via Summary frames; the final frame
	// lands before the result, so the mirror must be exact.
	for i, s := range res.Shards {
		snap := f.ShardCounters(i)
		for name, want := range map[string]int{
			obs.MetricHits:     s.Hits,
			obs.MetricPurged:   s.Purged,
			obs.MetricMissed:   s.ScheduledMissed,
			obs.MetricLost:     s.LostToFailure,
			obs.MetricShed:     s.Shed,
			obs.MetricAdmitted: s.Admitted,
			obs.MetricBounced:  s.Bounced,
		} {
			if got := snap[name]; got != int64(want) {
				t.Errorf("shard %d wire counters %s = %d, result says %d", i, name, got, want)
			}
		}
	}
	// The shipped journals merge with the router's into a span-complete
	// lifecycle stream, exactly as in process.
	entries, evicted := f.MergedEntries()
	if evicted != 0 {
		t.Fatalf("journal evicted %d entries under cap 4096", evicted)
	}
	routes := 0
	for i := range entries {
		if entries[i].Type == "route" {
			routes++
		}
	}
	if routes != res.Routed {
		t.Errorf("merged journal records %d route spans, router says %d", routes, res.Routed)
	}
	for _, msg := range obs.SpanViolations(entries) {
		t.Errorf("span completeness: %s", msg)
	}
	t.Logf("live TCP 2-shard: %s", res.Combined())
}

// TestFederationLiveTCPShardKill severs one shard's connection mid-run and
// demands the run still complete with balanced books: the dead shard's
// synthesized result charges everything it was fed to LostToFailure minus
// what the router migrated away, and Reconcile's identities hold exactly.
func TestFederationLiveTCPShardKill(t *testing.T) {
	p := workload.DefaultParams(4)
	p.NumTransactions = 160
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	farm := newShardFarm(t, 2)
	f, err := New(Config{
		Workload:   w,
		Topology:   Topology{Shards: 2, WorkersPerShard: 2},
		Placement:  AffinityFirst,
		Migrate:    true,
		Scale:      50,
		Admission:  admission.Config{Policy: admission.Reject, QueueCap: 8},
		SlackGuard: 25 * time.Microsecond,
		ShardAddrs: farm.addrs,
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := f.Run()
		done <- outcome{res, err}
	}()
	time.Sleep(100 * time.Millisecond)
	farm.kill(1)
	out := <-done
	if out.err != nil {
		t.Fatalf("run with killed shard: %v", out.err)
	}
	res := out.res
	if err := res.Reconcile(); err != nil {
		t.Fatalf("reconcile after kill: %v", err)
	}
	if res.Routed != len(w.Tasks) {
		t.Errorf("routed %d of %d tasks", res.Routed, len(w.Tasks))
	}
	dead := res.Shards[1]
	if dead.LostToFailure == 0 {
		t.Logf("note: shard 1 settled everything before the kill landed (lost=0); books still balance")
	}
	t.Logf("killed shard books: total=%d lost=%d hits=%d bounced=%d; federation %s",
		dead.Total, dead.LostToFailure, dead.Hits, dead.Bounced, res.Combined())
}

// TestFederationLiveTCPShardRejoin kills shard 1's session mid-run with
// rejoin enabled: the router must salvage the dead session's outstanding
// tasks, redial the shard (the farm's accept loop serves a fresh session),
// complete the rejoin handshake, and finish the run with exactly balanced
// books spanning kill → salvage → rejoin.
func TestFederationLiveTCPShardRejoin(t *testing.T) {
	p := workload.DefaultParams(4)
	p.NumTransactions = 240
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	farm := newShardFarm(t, 2)
	f, err := New(Config{
		Workload:   w,
		Topology:   Topology{Shards: 2, WorkersPerShard: 2},
		Placement:  AffinityFirst,
		Migrate:    true,
		Scale:      50,
		Admission:  admission.Config{Policy: admission.Reject, QueueCap: 8},
		SlackGuard: 25 * time.Microsecond,
		ShardAddrs: farm.addrs,
		JournalCap: 8192,
		Recovery:   Recovery{Rejoin: true},
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := f.Run()
		done <- outcome{res, err}
	}()
	time.Sleep(100 * time.Millisecond)
	farm.kill(1)
	out := <-done
	if out.err != nil {
		t.Fatalf("run with killed+rejoined shard: %v", out.err)
	}
	res := out.res
	if err := res.Reconcile(); err != nil {
		t.Fatalf("reconcile across kill→salvage→rejoin: %v", err)
	}
	if res.Routed != len(w.Tasks) {
		t.Errorf("routed %d of %d tasks", res.Routed, len(w.Tasks))
	}
	if res.Rejoins < 1 {
		t.Errorf("rejoins = %d, want at least 1 after the kill", res.Rejoins)
	}
	rs, ok := f.handles[1].(*remoteShard)
	if !ok {
		t.Fatalf("shard 1 handle is %T, want *remoteShard", f.handles[1])
	}
	if got := rs.Rejoins(); got < 1 {
		t.Errorf("shard 1 rejoined %d times, want at least 1", got)
	}
	if snap := f.Registry().Snapshot(); snap[MetricRejoins] != int64(res.Rejoins) {
		t.Errorf("registry %s = %d, result says %d", MetricRejoins, snap[MetricRejoins], res.Rejoins)
	}
	t.Logf("rejoin run: rejoins=%d salvaged=%d salvage-lost=%d shard1 books: total=%d hits=%d lost=%d bounced=%d",
		res.Rejoins, res.Salvaged, res.SalvageLost,
		res.Shards[1].Total, res.Shards[1].Hits, res.Shards[1].LostToFailure, res.Shards[1].Bounced)
}

// TestFederationLiveTCPShardFlap kills shard 1 repeatedly with a tight
// flap threshold: the shard must rejoin each time, cross the threshold,
// land on probation (quarantined from placement — the quarantine counter
// must tick), and the run must still finish with balanced books and no
// migration storm (every migration remains a deliberate §4.3-gated move).
func TestFederationLiveTCPShardFlap(t *testing.T) {
	p := workload.DefaultParams(4)
	p.NumTransactions = 240
	// Poisson arrivals at a 40µs mean stretch the routing phase over ~2s of
	// wall clock at Scale 200, so the kills — and the probation windows the
	// rejoins open — land while placement decisions are still being made.
	// Bursty arrivals would route everything in the first few milliseconds
	// and no placement could ever observe the quarantine.
	p.Arrival = workload.Poisson
	p.MeanInterArrival = 40 * time.Microsecond
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	farm := newShardFarm(t, 2)
	f, err := New(Config{
		Workload:   w,
		Topology:   Topology{Shards: 2, WorkersPerShard: 2},
		Placement:  AffinityFirst,
		Migrate:    true,
		Scale:      200,
		Admission:  admission.Config{Policy: admission.Reject, QueueCap: 8},
		SlackGuard: 25 * time.Microsecond,
		ShardAddrs: farm.addrs,
		Recovery: Recovery{
			Rejoin:        true,
			MaxRejoins:    8,
			FlapThreshold: 2,
			FlapWindow:    10 * time.Second,
			Probation:     300 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := f.Run()
		done <- outcome{res, err}
	}()
	for k := 0; k < 3; k++ {
		time.Sleep(120 * time.Millisecond)
		farm.kill(1)
	}
	out := <-done
	if out.err != nil {
		t.Fatalf("run with flapping shard: %v", out.err)
	}
	res := out.res
	if err := res.Reconcile(); err != nil {
		t.Fatalf("reconcile with flapping shard: %v", err)
	}
	if res.Rejoins < 2 {
		t.Errorf("rejoins = %d, want at least 2 from three kills", res.Rejoins)
	}
	snap := f.Registry().Snapshot()
	if snap[MetricQuarantines] < 1 {
		t.Errorf("quarantines = %d, want at least 1: the flapping shard never hit probation", snap[MetricQuarantines])
	}
	// No migration storm: a flapping shard must not bounce the same tasks
	// around indefinitely. Every task migrates at most Shards-1 times (the
	// tried sets), so migrations are bounded by the workload size here.
	if res.Migrated > 2*len(w.Tasks) {
		t.Errorf("migrated %d times for %d tasks: migration storm", res.Migrated, len(w.Tasks))
	}
	t.Logf("flap run: rejoins=%d quarantines=%d salvaged=%d migrated=%d",
		res.Rejoins, snap[MetricQuarantines], res.Salvaged, res.Migrated)
}

// TestShardConfigSameOverWire: one federation.Config must configure a shard
// identically whether the shard runs in process or behind a wire session. It
// walks livecluster.Config and Liveness by reflection: every field is either
// named below as one a session hello has no business carrying, or must be set
// by shardConfig and arrive unchanged through the Hello — so a field added to
// either struct fails here until it is carried.
func TestShardConfigSameOverWire(t *testing.T) {
	// identity is what makes a shard this shard; startShard adds it on the far
	// side. unreached are the fields no federation.Config sets. dialOnly bound
	// dialling a TCP worker, which a shard's in-process backend never does.
	identity := map[string]bool{"Workload": true, "Clock": true, "OnReject": true, "Obs": true, "Faults": true}
	unreached := map[string]bool{"Policy": true, "Backend": true, "RecordCompletions": true}
	dialOnly := map[string]bool{"HelloTimeout": true, "RedialBackoff": true}

	p := workload.DefaultParams(4)
	p.NumTransactions = 8
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	for name, degrade := range map[string]*core.DegradeConfig{
		"tuned":    {After: 4, Recover: 7, SlackFraction: 0.25},
		"defaults": {}, // controller on, default streak: not "no controller"
	} {
		t.Run("degrade-"+name, func(t *testing.T) {
			f, err := New(Config{
				Workload:  w,
				Topology:  Topology{Shards: 2, WorkersPerShard: 2},
				Algorithm: policy.DCOLS,
				Scale:     200,
				Liveness: livecluster.Liveness{
					HeartbeatEvery: 20 * time.Millisecond, Timeout: 150 * time.Millisecond, HelloTimeout: time.Second,
					Redials: 5, RedialBackoff: 30 * time.Millisecond,
					StragglerGrace: 90 * time.Millisecond, StragglerStrikes: 4,
				},
				Admission:    admission.Config{Policy: admission.Reject, QueueCap: 8},
				Backpressure: 16,
				SlackGuard:   25 * time.Microsecond,
				Degrade:      degrade,
			})
			if err != nil {
				t.Fatalf("new: %v", err)
			}
			if f.clock, err = livecluster.NewClock(f.cfg.Scale); err != nil {
				t.Fatal(err)
			}
			rs := &remoteShard{id: 1, f: f, live: f.cfg.Liveness.WithDefaults()}
			payload, err := json.Marshal(rs.hello(false))
			if err != nil {
				t.Fatal(err)
			}
			var hello wire.Hello
			if err := json.Unmarshal(payload, &hello); err != nil {
				t.Fatal(err)
			}
			local, remote := f.shardConfig(1, f.clock), helloShardConfig(hello)

			sameFields := func(what string, local, remote reflect.Value, skip map[string]bool) {
				for i := 0; i < local.NumField(); i++ {
					field, l, r := local.Type().Field(i).Name, local.Field(i), remote.Field(i)
					switch {
					case skip[field]:
					case l.IsZero():
						t.Errorf("%s.%s: shardConfig leaves it unset and it is not listed as exempt", what, field)
					case !reflect.DeepEqual(l.Interface(), r.Interface()):
						t.Errorf("%s.%s: in process %+v, over the wire %+v", what, field, l, r)
					}
				}
			}
			skip := map[string]bool{"Liveness": true} // walked field by field below
			for field := range identity {
				skip[field] = true
			}
			for field := range unreached { // exempt only while shardConfig really leaves it unset
				skip[field] = reflect.ValueOf(local).FieldByName(field).IsZero()
			}
			sameFields("Config", reflect.ValueOf(local), reflect.ValueOf(remote), skip)
			sameFields("Liveness", reflect.ValueOf(local.Liveness), reflect.ValueOf(remote.Liveness), dialOnly)
		})
	}
}

// TestServeShardIgnoresRetiredHelloKeys: a router from before the
// work-stealing search knobs were removed still sends them; the shard must
// ignore the unknown keys and open the session.
func TestServeShardIgnoresRetiredHelloKeys(t *testing.T) {
	farm := newShardFarm(t, 1)
	nc, err := net.Dial("tcp", farm.addrs[0])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	conn := wire.NewConn(nc)
	if err := conn.WriteHandshake(); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if err := conn.ReadHandshake(); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	p := workload.DefaultParams(2)
	p.NumTransactions = 8
	payload, err := json.Marshal(wire.Hello{
		Params: p, Shards: 1, WorkersPerShard: 2,
		Algorithm: string(policy.RTSADS), Scale: 200, StartUnixNano: time.Now().UnixNano(),
	})
	if err != nil {
		t.Fatal(err)
	}
	payload = append([]byte(`{"parallel":4,"steal_depth":2,"frontier_cap":64,"dup_cap":-1,`), payload[1:]...)
	if err := conn.WriteFrame(wire.TypeHello, payload); err != nil {
		t.Fatalf("hello: %v", err)
	}
	typ, body, err := conn.ReadFrame()
	if err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if typ != wire.TypeSummary {
		t.Fatalf("shard answered the legacy hello with frame type %d (%s), want a summary", typ, body)
	}
}

// TestRemoteViewTracksShard drives one wire session by hand and demands the
// router's view of the shard move with the shard's host loop, not with the
// JSON summary ticker: while tasks flow the handle's LoadSummary changes
// many times inside a window shorter than one summary interval, once the
// shard is idle it equals the cluster's last published view field for
// field, and it still does after the session has closed. The journal of
// the run is larger than one Journal frame may carry and must arrive whole.
func TestRemoteViewTracksShard(t *testing.T) {
	p := workload.DefaultParams(2)
	p.NumTransactions = 600
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	opened := make(chan *shardServer, 1)
	served := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer nc.Close()
		srv, runErrc, err := openShard(nc, ServeShardOptions{})
		if err != nil {
			served <- err
			return
		}
		opened <- srv
		served <- srv.serve(runErrc)
	}()

	// A 30 s timeout puts 6 s between JSON summaries: after the one that
	// answers the hello, none can land while this test watches the view.
	live := livecluster.Liveness{HeartbeatEvery: time.Second, Timeout: 30 * time.Second}
	summaryEvery := live.Timeout / 5
	f, err := New(Config{
		Workload:   w,
		Topology:   Topology{Shards: 1, WorkersPerShard: 2},
		Scale:      5,
		Liveness:   live,
		ShardAddrs: []string{ln.Addr().String()},
		JournalCap: 1 << 15,
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if f.clock, err = livecluster.NewClock(f.cfg.Scale); err != nil {
		t.Fatal(err)
	}
	rs, err := f.dialShard(0, f.cfg.ShardAddrs[0])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	f.mu.Lock()
	f.handles = []shardHandle{rs}
	f.mu.Unlock()
	var srv *shardServer
	select {
	case srv = <-opened:
	case err := <-served:
		t.Fatalf("shard session: %v", err)
	}

	// Feed the workload's tasks two at a time with deadlines a virtual
	// second out, so every one is planned, delivered and executed.
	start := time.Now()
	seen := map[livecluster.Summary]bool{rs.LoadSummary(): true}
	for i := 0; i < len(w.Tasks); i += 2 {
		now := f.clock.Now()
		batch := make([]*task.Task, 0, 2)
		for _, t0 := range w.Tasks[i:min(i+2, len(w.Tasks))] {
			c := *t0
			c.Arrival, c.Deadline = now, now.Add(time.Second)
			batch = append(batch, &c)
		}
		if err := rs.SubmitBatch(batch); err != nil {
			t.Fatalf("submit: %v", err)
		}
		time.Sleep(time.Millisecond)
		seen[rs.LoadSummary()] = true
	}
	flow := time.Since(start)
	if flow >= summaryEvery {
		t.Skipf("feeding took %v, longer than the %v between summaries: the box stalled", flow, summaryEvery)
	}
	if len(seen) < 20 {
		t.Errorf("router saw %d distinct views of the shard in %v with no JSON summary due for %v; want the view to follow the host loop",
			len(seen), flow, summaryEvery)
	}

	// Quiesce, then compare against the cluster itself. An idle host still
	// republishes on its safety tick (MinFree follows the clock), so read
	// the cluster on both sides of the handle and retry across a tick.
	deadline := time.Now().Add(20 * time.Second)
	for {
		before := srv.cl.LoadSummary()
		got := rs.LoadSummary()
		after := srv.cl.LoadSummary()
		if before == after && got == before && got.Backlog == 0 && got.Inflight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router view never met the idle shard's:\nrouter: %+v\nshard:  %+v", got, after)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if quiet := time.Since(start); quiet >= summaryEvery {
		t.Logf("note: quiescing took %v, a JSON summary may have helped the final comparison", quiet)
	}

	rs.Seal()
	res, err := rs.Wait()
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("shard session: %v", err)
	}
	if res.Total != len(w.Tasks) || res.Hits+res.ScheduledMissed+res.Purged != res.Total {
		t.Errorf("shard books: %s", res)
	}
	if got, want := rs.LoadSummary(), srv.cl.LoadSummary(); got != want {
		t.Errorf("view after the session closed:\nrouter: %+v\nshard:  %+v", got, want)
	}
	want, wantEvicted := srv.o.Journal().Export()
	got, evicted := rs.Journal()
	if len(want) <= journalChunk {
		t.Fatalf("journal has %d entries; the test needs more than one %d-entry frame", len(want), journalChunk)
	}
	if len(got) != len(want) || evicted != wantEvicted {
		t.Fatalf("journal arrived with %d entries (%d evicted), shard recorded %d (%d evicted)",
			len(got), evicted, len(want), wantEvicted)
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].Task != want[i].Task || got[i].Virtual != want[i].Virtual {
			t.Fatalf("journal entry %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	t.Logf("%d distinct views in %v of flow; %d journal entries in %d frames; %s",
		len(seen), flow, len(got), (len(got)+journalChunk-1)/journalChunk, res)
}

// TestServeShardRefusesPreviousVersion: a router speaking the previous
// grammar (version 3: no worker tier, flat degrade keys) is turned away at
// the preamble, before any hello.
func TestServeShardRefusesPreviousVersion(t *testing.T) {
	const previous = wire.Version - 1
	a, b := net.Pipe()
	defer a.Close()
	served := make(chan error, 1)
	go func() { served <- ServeShard(b, ServeShardOptions{HelloTimeout: 5 * time.Second}) }()
	a.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := a.Write(append([]byte(wire.Magic), previous)); err != nil {
		t.Fatalf("write preamble: %v", err)
	}
	err := <-served
	if want := fmt.Sprintf("peer speaks version %d", previous); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ServeShard answered a version-%d preamble with %v; want a version refusal", previous, err)
	}
	if _, err := a.Read(make([]byte, 1)); err == nil {
		t.Fatalf("shard kept talking to a version-%d peer", previous)
	}
}
