package chaos

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/db"
	"rtsads/internal/federation"
	"rtsads/internal/obs"
	"rtsads/internal/rng"
	"rtsads/internal/workload"
)

// FedTCPScenario is the wire-tier chaos case: a federation whose shards run
// behind real TCP sessions, one of which is severed mid-run — the failure
// signature of a shard process dying. The router must survive on its own
// books: the dead shard's result is synthesized from what the router fed it
// minus what it migrated away, and every accounting identity still holds.
// Unlike FedScenario's virtual-time worker kills, the cut lands on the wall
// clock, so which tasks die varies run to run — the invariants must not.
type FedTCPScenario struct {
	Seed     uint64
	Topology federation.Topology
	Tasks    int
	SF       float64
	Scale    float64

	Placement  federation.Placement
	Migrate    bool
	Admission  admission.Config
	SlackGuard time.Duration

	// KillShard names the shard whose session is severed; -1 disables.
	KillShard int
	// KillAfter is the wall-clock delay from run start to the cut.
	KillAfter time.Duration
	// Rejoin lets the router redial the severed shard: the farm's accept
	// loop serves a fresh session and the shard re-enters placement, so the
	// run exercises the full kill→salvage→rejoin cycle instead of finishing
	// on a synthesized dead-shard result.
	Rejoin bool
}

// NewFedTCPScenario derives a sever-a-session scenario from its seed.
func NewFedTCPScenario(seed uint64) FedTCPScenario {
	src := rng.New(seed)
	s := FedTCPScenario{
		Seed: seed,
		Topology: federation.Topology{
			Shards:          2,
			WorkersPerShard: src.IntRange(2, 3),
		},
		Tasks:      src.IntRange(96, 192),
		SF:         3 + 3*src.Float64(),
		Scale:      200, // same wall-jitter argument as NewScenario
		Placement:  federation.Placement(src.Intn(3)),
		Migrate:    src.Bool(0.75),
		SlackGuard: 25 * time.Microsecond,
		Admission: admission.Config{
			Policy:         admission.Reject,
			QueueCap:       src.IntRange(4, 12),
			RejectHopeless: src.Bool(0.5),
		},
	}
	s.KillShard = src.Intn(s.Topology.Shards)
	s.KillAfter = time.Duration(src.IntRange(60, 300)) * time.Millisecond
	s.Rejoin = src.Bool(0.5)
	return s
}

// FedTCPReport is the outcome of one wire-tier scenario.
type FedTCPReport struct {
	Scenario   FedTCPScenario
	Result     *federation.Result
	Violations []string
	Journal    []obs.Entry
	Evicted    int64
}

// Run executes the scenario over loopback TCP shard sessions and checks the
// federation invariants. A non-nil error means the scenario could not run
// at all; invariant failures land in Report.Violations.
func (s FedTCPScenario) Run() (*FedTCPReport, error) {
	p := workload.DefaultParams(s.Topology.TotalWorkers())
	p.Seed = s.Seed | 1
	p.NumTransactions = s.Tasks
	p.SF = s.SF
	p.DB = db.Config{SubDBs: 4, TuplesPerSub: 200, DomainSize: 10, KeyAttr: 0}
	w, err := workload.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("chaos: fedtcp seed %d: %w", s.Seed, err)
	}

	// One loopback shard server per shard — the failure-model equivalent of
	// rtcluster -shard-listen processes.
	addrs := make([]string, s.Topology.Shards)
	conns := make([]net.Conn, s.Topology.Shards)
	var mu sync.Mutex
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("chaos: fedtcp seed %d: %w", s.Seed, err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
		go func(i int, ln net.Listener) {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				mu.Lock()
				conns[i] = c
				mu.Unlock()
				// Per-session goroutine: a rejoin dial lands on a fresh
				// session immediately, as it would on a restarted process.
				go func() { _ = federation.ServeShard(c, federation.ServeShardOptions{}) }()
			}
		}(i, ln)
	}

	f, err := federation.New(federation.Config{
		Workload:   w,
		Topology:   s.Topology,
		Placement:  s.Placement,
		Migrate:    s.Migrate,
		Scale:      s.Scale,
		Admission:  s.Admission,
		SlackGuard: s.SlackGuard,
		ShardAddrs: addrs,
		JournalCap: 4096,
		Rejoin:     s.Rejoin,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: fedtcp seed %d: %w", s.Seed, err)
	}
	type outcome struct {
		res *federation.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := f.Run()
		done <- outcome{res, err}
	}()
	if s.KillShard >= 0 {
		time.Sleep(s.KillAfter)
		mu.Lock()
		c := conns[s.KillShard]
		mu.Unlock()
		if c != nil {
			c.Close()
		}
	}
	out := <-done
	if out.err != nil {
		return nil, fmt.Errorf("chaos: fedtcp seed %d: %w", s.Seed, out.err)
	}
	rep := &FedTCPReport{Scenario: s, Result: out.res}
	rep.Journal, rep.Evicted = f.MergedEntries()
	rep.Violations = s.check(out.res, f, rep.Journal, rep.Evicted)
	return rep, nil
}

// check evaluates the wire-tier invariants against one finished run: the
// shared federation ones, a wire-jitter miss budget, complete routing and
// the surviving shards' wire counts.
func (s FedTCPScenario) check(res *federation.Result, f *federation.Federation, journal []obs.Entry, evicted int64) []string {
	v := checkFederation(res, f, journal, evicted)
	add := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	// Over a real wire the reject verdict is a network round trip that
	// stalls the shard's host loop — genuine wall-clock jitter the
	// in-process tier never sees. The live tier's jitter tolerance applies
	// (livecluster's own tests allow 10%); here 2% of the workload.
	comb := res.Combined()
	if limit := s.Tasks / 50; comb.ScheduledMissed > limit {
		add("%d scheduled tasks missed their deadlines across the federation; wire-jitter budget is %d", comb.ScheduledMissed, limit)
	}
	if res.Routed != s.Tasks {
		add("routed %d of %d tasks", res.Routed, s.Tasks)
	}

	// Surviving shards' wire counts mirror their results exactly (the
	// final Progress frame lands before the result frame). The killed
	// shard's books are synthesized router-side, so its last frame may
	// honestly trail — it is exempt.
	for i, sr := range res.Shards {
		if i == s.KillShard {
			continue
		}
		if got, want := f.ShardCounters(i), sr.Counts(); got != want {
			add("shard %d wire counts %v, run result says %v", i, got, want)
		}
	}
	return v
}

// runFedTCPScenario runs one seeded wire-tier scenario with a hang guard.
func runFedTCPScenario(t *testing.T, seed uint64) *FedTCPReport {
	t.Helper()
	type outcome struct {
		rep *FedTCPReport
		err error
	}
	ch := make(chan outcome, 1)
	s := NewFedTCPScenario(seed)
	go func() {
		rep, err := s.Run()
		ch <- outcome{rep, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatal(o.err)
		}
		return o.rep
	case <-time.After(120 * time.Second):
		t.Fatalf("fedtcp seed %d: scenario hung", seed)
		return nil
	}
}

func TestFedTCPScenarioDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		a, b := NewFedTCPScenario(seed), NewFedTCPScenario(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: fedtcp scenario generation not deterministic:\n%+v\n%+v", seed, a, b)
		}
		if a.KillShard < 0 || a.KillShard >= a.Topology.Shards {
			t.Errorf("seed %d: kill targets shard %d of %d", seed, a.KillShard, a.Topology.Shards)
		}
	}
}

// TestFedTCPChaosSmoke drives seeded sever-a-session scenarios through
// out-of-process shards on loopback TCP and checks the wire-tier invariants
// on each. Across the batch the session-death machinery must demonstrably
// fire: at least one run must show death evidence — tasks salvaged off the
// dead shard, salvage attempts explicitly lost, a completed rejoin, or
// tasks charged lost to the dead shard's synthesized books.
func TestFedTCPChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wire-tier chaos runs on the wall clock")
	}
	var sessionDeaths, bounced, migrated, lost, salvaged, rejoins int
	for seed := uint64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rep := runFedTCPScenario(t, seed)
			for _, v := range rep.Violations {
				t.Errorf("fedtcp seed %d: %s", seed, v)
			}
			res := rep.Result
			dead := res.Shards[rep.Scenario.KillShard]
			if dead.LostToFailure > 0 || res.Salvaged > 0 || res.SalvageLost > 0 || res.Rejoins > 0 {
				sessionDeaths++
			}
			bounced += res.Bounced
			migrated += res.Migrated
			lost += res.Combined().LostToFailure
			salvaged += res.Salvaged
			rejoins += res.Rejoins
		})
	}
	if sessionDeaths == 0 {
		t.Error("no scenario showed death evidence from a severed session; the wire-death path went unexercised")
	}
	t.Logf("aggregate over 6 seeds: session deaths=%d bounced=%d migrated=%d lost=%d salvaged=%d rejoins=%d",
		sessionDeaths, bounced, migrated, lost, salvaged, rejoins)
}
