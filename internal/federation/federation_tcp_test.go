package federation

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/db"
	"rtsads/internal/federation/wire"
	"rtsads/internal/livecluster"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/policy"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// journalChunk is a journal size, in entries, that the tests below treat as
// more than one Journal frame: a shard ships one frame per ring block of
// about 256 records, so a journal of journalChunk entries spans several.
const journalChunk = 2048

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
	// Remote shard counts arrive via Progress frames; the final frame
	// lands before the result, so the mirror must be exact.
	for i, s := range res.Shards {
		if got, want := f.ShardCounters(i), s.Counts(); got != want {
			t.Errorf("shard %d wire counts %v, result says %v", i, got, want)
		}
	}
	// /slo reads the same books: the rollup's hits are the federation's,
	// and a remote shard's summary is its last Progress frame's counts.
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/slo", nil))
	var slo struct {
		Federation obs.SLOSummary   `json:"federation"`
		Shards     []obs.SLOSummary `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &slo); err != nil {
		t.Fatalf("/slo: %v\n%s", err, rec.Body)
	}
	if got, want := slo.Federation.Hits, int64(res.Combined().Hits); got != want {
		t.Errorf("/slo federation hits = %d, want %d", got, want)
	}
	if len(slo.Shards) != 2 {
		t.Fatalf("/slo serves %d shard summaries, want 2", len(slo.Shards))
	}
	for i, got := range slo.Shards {
		if want := (obs.SLOInput{Counts: f.ShardCounters(i)}).Summary(); got != want {
			t.Errorf("/slo shard %d = %+v, want its counts %v summarized: %+v", i, got, f.ShardCounters(i), want)
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

// TestFederationLiveTCPJournalShipsExactly serves two shards on observers
// the test holds. Quiet, the merged journal's entries from each shard equal
// that shard's own Export field by field but for the Shard tag. With a
// goroutine recording into shard 1's journal all the while — so it wraps
// its ring and ships as a moving target, several chunks long — what the
// router holds is still one consistent cut, Seq == evicted+i+1, and exactly
// the router's JournalCap long, whether that equals the shard's ring (every
// shipped slot is the next one overwritten) or is smaller.
func TestFederationLiveTCPJournalShipsExactly(t *testing.T) {
	p := workload.DefaultParams(4)
	p.NumTransactions = 48
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	const ring = 3 * journalChunk
	for _, tc := range []struct {
		name      string
		recording bool
		jcap      int
	}{
		{"quiet", false, ring},
		{"recording", true, ring},
		{"recording-cap-below-ring", true, 2*journalChunk + 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recording, jcap := tc.recording, tc.jcap
			observers := []*obs.Observer{obs.New(ring), obs.New(ring)}
			addrs := make([]string, len(observers))
			for i, o := range observers {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ln.Close() })
				addrs[i] = ln.Addr().String()
				go func() {
					if c, err := ln.Accept(); err == nil {
						ServeShard(c, ServeShardOptions{Obs: o})
					}
				}()
			}
			stop, stopped := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(stopped)
				for k := 0; recording; k++ {
					select {
					case <-stop:
						return
					default:
						observers[1].Journal().Record(obs.Entry{Type: "heartbeat", Task: k, Worker: -1})
					}
				}
			}()
			f, err := New(Config{
				Workload:   w,
				Topology:   Topology{Shards: 2, WorkersPerShard: 2},
				Placement:  AffinityFirst,
				Scale:      200,
				ShardAddrs: addrs,
				JournalCap: jcap,
			})
			if err != nil {
				t.Fatalf("new: %v", err)
			}
			res, err := f.Run()
			close(stop)
			<-stopped
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if err := res.Reconcile(); err != nil {
				t.Fatalf("reconcile: %v", err)
			}
			merged, _ := f.MergedEntries()
			for i, o := range observers {
				got, evicted := f.handle(i).Journal()
				for k := range got {
					if want := evicted + int64(k) + 1; got[k].Seq != want {
						t.Fatalf("shard %d entry %d has seq %d, want %d: not one cut", i, k, got[k].Seq, want)
					}
				}
				if recording && i == 1 {
					if evicted == 0 || len(got) != jcap {
						t.Errorf("recording shard shipped %d entries, %d evicted; want the newest %d", len(got), evicted, jcap)
					}
					continue
				}
				var fromShard []obs.Entry
				for _, e := range merged {
					if e.Shard == i {
						fromShard = append(fromShard, e)
					}
				}
				slices.SortFunc(fromShard, func(a, b obs.Entry) int { return cmp.Compare(a.Seq, b.Seq) })
				want, wantEvicted := o.Journal().Export()
				if len(fromShard) != len(want) || evicted != wantEvicted || len(want) == 0 {
					t.Fatalf("shard %d: merged %d entries (%d evicted), shard exported %d (%d)", i, len(fromShard), evicted, len(want), wantEvicted)
				}
				for k := range want {
					a, b := fromShard[k], want[k]
					a.Shard = 0
					if !a.Wall.Equal(b.Wall) {
						t.Fatalf("shard %d entry %d wall %v, shard says %v", i, k, a.Wall, b.Wall)
					}
					a.Wall, b.Wall = time.Time{}, time.Time{}
					if a != b {
						t.Fatalf("shard %d entry %d: merged %+v, shard says %+v", i, k, a, b)
					}
				}
			}
		})
	}
}

// TestFederationLiveTCPByeIsTerminal: with the router heartbeating every
// millisecond, a heartbeat is nearly always in flight when a shard says Bye.
// It must land in an open socket — the shard half-closes and reads until the
// router closes — and not draw a reset that discards the Journal and Bye the
// router has not read yet. Each journal spans several Journal frames, so the
// shard is still writing when its run ends. Over twenty runs every shard's own
// Result arrives, its journal arrives whole (through run-end, with an admit
// per admitted task), and no session reports a death.
func TestFederationLiveTCPByeIsTerminal(t *testing.T) {
	p := workload.DefaultParams(4)
	p.NumTransactions = 2000
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	farm := newShardFarm(t, 2)
	for run := 0; run < 20; run++ {
		f, err := New(Config{
			Workload:   w,
			Topology:   Topology{Shards: 2, WorkersPerShard: 2},
			Placement:  AffinityFirst,
			Migrate:    true,
			Scale:      20,
			Liveness:   livecluster.Liveness{HeartbeatEvery: time.Millisecond, Timeout: 500 * time.Millisecond},
			ShardAddrs: farm.addrs,
			JournalCap: 1 << 15,
		})
		if err != nil {
			t.Fatalf("new: %v", err)
		}
		res, err := f.Run()
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if err := res.Reconcile(); err != nil {
			t.Fatalf("run %d: reconcile: %v", run, err)
		}
		for i, h := range f.handles {
			rs := h.(*remoteShard)
			rs.mu.Lock()
			got := rs.res
			rs.mu.Unlock()
			if err := rs.Err(); err != nil || got == nil {
				t.Fatalf("run %d shard %d: result arrived %v, session error %v", run, i, got != nil, err)
			}
			entries, evicted := rs.Journal()
			admits := 0
			for _, e := range entries {
				if e.Type == "admit" {
					admits++
				}
			}
			if evicted != 0 || len(entries) == 0 || entries[len(entries)-1].Type != "run-end" || admits != got.Admitted {
				t.Fatalf("run %d shard %d: journal of %d entries (%d evicted) holds %d admits for %d admitted tasks",
					run, i, len(entries), evicted, admits, got.Admitted)
			}
		}
	}
}

// TestProgressCoversExactlyShippedIDs: tasks settle from several goroutines
// while Progress frames are encoded. Decoded in order, every frame's terminal
// counts equal the IDs shipped through it, its shed reasons sum to its Shed,
// and no ID ships twice — the salvage invariant, frame by frame.
func TestProgressCoversExactlyShippedIDs(t *testing.T) {
	p := workload.DefaultParams(2)
	p.NumTransactions = 1
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cl, err := livecluster.New(livecluster.Config{Workload: w, External: true})
	if err != nil {
		t.Fatal(err)
	}
	s := &shardServer{cl: cl, o: obs.New(0), settledTick: make(chan struct{}, 1)}
	// Every position the settle hook hands over: the verdicts, a shed's by
	// its reason.
	verdicts := []metrics.Count{metrics.CountHits, metrics.CountMissed, metrics.CountPurged, metrics.CountLost,
		metrics.CountShedHopeless, metrics.CountShedQueueFull, metrics.CountShedShutdown, metrics.CountShedInfeasible}
	const settlers, each = 4, 5000
	var wg sync.WaitGroup
	for g := 0; g < settlers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.noteSettled(task.ID(g*each+i), verdicts[i%len(verdicts)])
			}
		}(g)
	}
	settled := make(chan struct{})
	go func() {
		wg.Wait()
		close(settled)
	}()

	shipped := make(map[int32]bool)
	var buf []byte
	var frame wire.Progress
	for seq := uint64(1); ; seq++ {
		last := false
		select {
		case <-settled:
			last = true // this frame ships whatever is left
		default:
		}
		buf = s.appendProgress(buf[:0])
		if err := wire.DecodeProgress(buf, &frame); err != nil {
			t.Fatalf("frame %d: %v", seq, err)
		}
		if frame.Seq != seq {
			t.Fatalf("frame %d carries Seq %d", seq, frame.Seq)
		}
		for _, id := range frame.Settled {
			if shipped[id] {
				t.Fatalf("frame %d ships task %d a second time", seq, id)
			}
			shipped[id] = true
		}
		if got := frame.Counts.Settled(); got != int64(len(shipped)) {
			t.Fatalf("frame %d counts %d settled tasks, %d IDs shipped through it", seq, got, len(shipped))
		}
		c := &frame.Counts
		if reasons := c[metrics.CountShedHopeless] + c[metrics.CountShedQueueFull] + c[metrics.CountShedShutdown] +
			c[metrics.CountShedInfeasible]; reasons != c[metrics.CountShed] {
			t.Fatalf("frame %d: shed reasons sum to %d, shed is %d", seq, reasons, c[metrics.CountShed])
		}
		if last {
			break
		}
	}
	if len(shipped) != settlers*each {
		t.Fatalf("%d IDs shipped, %d settled", len(shipped), settlers*each)
	}
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
	if err := dead.Balance(); err != nil {
		t.Errorf("killed shard's books: %v", err)
	}
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
		Rejoin:     true,
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
	if err := res.Shards[1].Balance(); err != nil {
		t.Errorf("rejoined shard's books: %v", err)
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

// TestFederationLiveTCPShardFlap kills shard 1 as often as the flap
// threshold counts deaths, inside one flap window and within the rejoin
// budget: the shard must rejoin each time, cross the threshold,
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
		Rejoin:     true,
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
	if err := res.Shards[1].Balance(); err != nil {
		t.Errorf("flapping shard's books: %v", err)
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

// TestShardRefusesHelloBeforeDrawing: a hello whose workload does not fit
// the topology, or whose tables are past their bounds, is refused with
// nothing drawn — the checks run before the transaction table is built.
func TestShardRefusesHelloBeforeDrawing(t *testing.T) {
	for _, c := range []struct {
		name    string
		workers int // the topology below needs 4
		mut     func(*workload.Params)
		want    string
	}{
		{"topology", 3, func(p *workload.Params) { p.NumTransactions = 50_000_000 },
			"workload has 3 workers but topology needs 4"},
		{"tuples", 4, func(p *workload.Params) { p.DB.TuplesPerSub = 1e9 },
			fmt.Sprintf("exceed the bound of %d tuples", db.MaxTuples)},
		{"transactions", 4, func(p *workload.Params) { p.NumTransactions = 1 << 40 },
			fmt.Sprintf("NumTransactions %d must be in [1,%d]", 1<<40, workload.MaxTransactions)},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := workload.DefaultParams(c.workers)
			c.mut(&p)
			hello := wire.Hello{Params: p, Shards: 2, WorkersPerShard: 2, Algorithm: string(policy.DCOLS), Scale: 50}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := startShard(nil, hello, ServeShardOptions{})
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one containing %q", err, c.want)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Errorf("refusing the hello allocated %d bytes; want < 1 MiB", grew)
			}
		})
	}
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
	unreached := map[string]bool{"Policy": true, "Backend": true}
	dialOnly := map[string]bool{"HelloTimeout": true, "Redials": true, "RedialBackoff": true}

	p := workload.DefaultParams(4)
	p.NumTransactions = 8
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
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
		Admission:  admission.Config{Policy: admission.Reject, QueueCap: 8},
		SlackGuard: 25 * time.Microsecond,
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
}

// TestServeShardIgnoresRetiredHelloKeys: a router from before the
// work-stealing search knobs, the redials key, admission's minimum
// communication cost, worker backpressure and degraded-mode planning were
// removed still sends them (testdata/retired_hello_keys.json); the shard
// must ignore the unknown keys and open the session.
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
	data, err := os.ReadFile("testdata/retired_hello_keys.json")
	if err != nil {
		t.Fatal(err)
	}
	var retired struct{ Hello, Admission json.RawMessage }
	if err := json.Unmarshal(data, &retired); err != nil {
		t.Fatal(err)
	}
	// Each retired object's members open the hello's object of that name.
	members := func(obj json.RawMessage) []byte { return append(bytes.Trim(obj, "{}"), ',') }
	payload = append(append([]byte("{"), members(retired.Hello)...), payload[1:]...)
	adm := []byte(`"admission":{`)
	payload = bytes.Replace(payload, adm, append(adm, members(retired.Admission)...), 1)
	if err := conn.WriteFrame(wire.TypeHello, payload); err != nil {
		t.Fatalf("hello: %v", err)
	}
	typ, body, err := conn.ReadFrame()
	if err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if typ != wire.TypeProgress {
		t.Fatalf("shard answered the legacy hello with frame type %d (%s), want a Progress frame", typ, body)
	}
}

// TestRemoteViewTracksShard drives one wire session by hand and demands the
// router's view of the shard move with the shard's host loop: while tasks
// flow the handle's LoadSummary changes many times, once the shard is idle
// it equals the cluster's last published view field for field, and it
// still does after the session has closed. The journal of the run is larger
// than one Journal frame may carry and must arrive whole.
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

	live := livecluster.Liveness{HeartbeatEvery: time.Second, Timeout: 30 * time.Second}
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
	if len(seen) < 20 {
		t.Errorf("router saw %d distinct views of the shard in %v; want the view to follow the host loop", len(seen), flow)
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

	rs.Seal()
	res, err := rs.Wait()
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("shard session: %v", err)
	}
	if res.Total != len(w.Tasks) || res.Balance() != nil {
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
// grammar (version 6: fixed-width journal records) is turned away at the preamble,
// before any hello.
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
