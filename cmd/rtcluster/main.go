// Command rtcluster runs the scheduler as a live message-passing system:
// a host process executing RT-SADS (or a baseline) under a wall-clock
// quantum, and worker processes that really execute transactions against
// their database replicas.
//
// All-in-one (host plus in-process worker goroutines):
//
//	rtcluster -workers 4 -algo RT-SADS -txns 200
//
// Distributed over TCP (one worker process per working processor):
//
//	rtcluster -role worker -listen 127.0.0.1:9101
//	rtcluster -role worker -listen 127.0.0.1:9102
//	rtcluster -role host -connect 127.0.0.1:9101,127.0.0.1:9102
//
// Deterministic fault injection (kill worker 1 at virtual time 40ms, drop
// two messages to worker 0):
//
//	rtcluster -workers 4 -txns 200 -faults "kill=1@40ms;drop=0:2@10ms"
//
// Observability: serve live /metrics, /healthz, expvar and pprof while the
// run is in flight, report progress to stderr, and write a Chrome trace of
// the run for chrome://tracing or Perfetto:
//
//	rtcluster -workers 4 -txns 600 -sf 6 -faults "kill=1@40ms" \
//	    -debug-addr :8077 -progress 1s -trace out.json
//
// Overload control: bound the ready queue, shed by policy, and fall back
// to EDF-greedy planning when RT-SADS stops keeping up:
//
//	rtcluster -workers 2 -txns 600 -admission shed-least-slack \
//	    -queue-cap 64 -degrade-after 3
//
// Sharded federation: split the workers into independent scheduler domains
// behind an affinity-aware router with deadline-safe cross-shard migration
// (-workers must divide evenly into -shards):
//
//	rtcluster -workers 8 -shards 2 -placement affinity -txns 400 \
//	    -admission reject -queue-cap 32 -debug-addr :8077
//
// A SIGINT or SIGTERM drains gracefully: admission stops, the admitted
// backlog is scheduled for up to -drain, and the journal and trace are
// still written. A second signal exits immediately.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/core"
	"rtsads/internal/experiment"
	"rtsads/internal/faultinject"
	"rtsads/internal/federation"
	"rtsads/internal/livecluster"
	"rtsads/internal/obs"
	"rtsads/internal/policy"
	"rtsads/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rtcluster:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (retErr error) {
	fs := flag.NewFlagSet("rtcluster", flag.ContinueOnError)
	role := fs.String("role", "inproc", "inproc (all-in-one), host, or worker")
	algo := fs.String("algo", "RT-SADS", "scheduler: RT-SADS, D-COLS, EDF-greedy, myopic")
	policyName := fs.String("policy", "", "scheduling policy from the registry (overrides -algo; 'list' prints the registry and exits)")
	admitQuick := fs.Bool("admit-quick", false, "admission: run the policy's utilization quick-test on every arrival (sheds sets no schedule could serve)")
	workers := fs.Int("workers", 4, "working processors (inproc role)")
	shardsFlag := fs.String("shards", "1", "shard the workers into this many federated scheduler domains (inproc role; must divide -workers evenly), or a comma-separated list of shard-server addresses (tcp://host:port) to drive shards running out of process via -shard-listen")
	shardListen := fs.String("shard-listen", "", "serve one federation shard on this address over the wire protocol (the router connects with -shards tcp://...)")
	batchCap := fs.Int("batch-cap", 0, "federation router: max due arrivals placed per batched routing decision (0 = unbounded)")
	placement := fs.String("placement", "affinity", "federation routing policy: affinity, least-ce or hashed")
	migrate := fs.Bool("migrate", true, "federation: re-offer admission-rejected tasks to feasible sibling shards")
	txns := fs.Int("txns", 200, "transactions in the workload")
	seed := fs.Uint64("seed", 1, "workload seed")
	scale := fs.Float64("scale", 20, "virtual-to-wall time scale (bigger = slower, less jitter)")
	sf := fs.Float64("sf", 1, "laxity (slack factor)")
	repl := fs.Float64("replication", 0.3, "sub-database replication rate")
	listen := fs.String("listen", "", "worker role: address to listen on")
	serve := fs.Bool("serve", false, "worker role: keep serving host sessions instead of exiting after one")
	connect := fs.String("connect", "", "host role: comma-separated worker addresses")
	faults := fs.String("faults", "", `fault-injection spec, e.g. "kill=1@40ms;drop=0:2@10ms;stall=2@30ms:25ms"`)
	heartbeat := fs.Duration("heartbeat", 0, "liveness heartbeat interval (0 = default)")
	timeout := fs.Duration("timeout", 0, "liveness timeout before a peer is presumed dead (0 = default)")
	rejoin := fs.Bool("rejoin", false, "federation: keep redialling a dead shard's address and re-admit the restarted -shard-listen process (requires -shards tcp://...)")
	rejoinMax := fs.Int("rejoin-max", 0, "federation: max rejoins per shard before it is closed for good (0 = default)")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /healthz, /journal, expvar and pprof on this address while the run is live (e.g. :8077 or :0)")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON file of the live run (chrome://tracing, Perfetto)")
	progress := fs.Duration("progress", 0, "report run progress to stderr at this wall-clock interval (0 = off)")
	journalOut := fs.String("journal", "", "write the structured event journal as JSON Lines to this file (federation-merged when -shards > 1)")
	taskTraceOut := fs.String("task-trace", "", "write a task-per-track Chrome trace of task lifecycles to this file (single cluster or federation-merged)")
	admissionPolicy := fs.String("admission", "off", "overload admission control: off, reject, shed-oldest or shed-least-slack (non-off also rejects hopeless tasks at enqueue)")
	queueCap := fs.Int("queue-cap", 0, "bound the host's ready queue to this many tasks; beyond it the -admission policy sheds (0 = unbounded)")
	degradeAfter := fs.Int("degrade-after", 0, "fall back to EDF-greedy planning after this many consecutive bad phases, recovering hysteretically (0 = off)")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown grace: how long a SIGINT/SIGTERM keeps scheduling the admitted backlog before abandoning it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *policyName == "list" {
		return policy.Default().Describe(out)
	}
	if *policyName != "" {
		// Strict validation at parse time: a typo fails here with the
		// registry listed, not mid-run inside a shard.
		if _, ok := policy.Default().Lookup(*policyName); !ok {
			return fmt.Errorf("unknown policy %q (run '-policy list' to see the registry)", *policyName)
		}
		*algo = *policyName
	}
	// Liveness knobs are validated at parse time: a negative interval or a
	// timeout no longer than the heartbeat would only surface as spurious
	// peer deaths deep into a run.
	if *heartbeat < 0 {
		return fmt.Errorf("-heartbeat %v must be non-negative", *heartbeat)
	}
	if *timeout < 0 {
		return fmt.Errorf("-timeout %v must be non-negative", *timeout)
	}
	if *heartbeat > 0 && *timeout > 0 && *timeout <= *heartbeat {
		return fmt.Errorf("-timeout %v must exceed -heartbeat %v, or a healthy peer is presumed dead between beats", *timeout, *heartbeat)
	}
	if *rejoinMax < 0 {
		return fmt.Errorf("-rejoin-max %d must be non-negative", *rejoinMax)
	}
	plan, err := faultinject.Parse(*faults)
	if err != nil {
		return err
	}

	// Shard-server mode: run one scheduler shard per session, configured
	// entirely by the router's hello frame.
	if *shardListen != "" {
		lis, err := net.Listen("tcp", federation.StripScheme(*shardListen))
		if err != nil {
			return fmt.Errorf("listen: %w", err)
		}
		defer lis.Close()
		fmt.Fprintf(out, "shard listening on %s\n", lis.Addr())
		for {
			conn, err := lis.Accept()
			if err != nil {
				return err
			}
			err = federation.ServeShard(conn, federation.ServeShardOptions{})
			if err != nil {
				fmt.Fprintf(out, "shard session failed: %v\n", err)
			} else {
				fmt.Fprintln(out, "shard session complete")
			}
			if !*serve {
				return err
			}
		}
	}

	// -shards is either a count (in-process shards) or an address list
	// (out-of-process shard servers).
	shardCount, shardAddrs := 1, []string(nil)
	if v := strings.TrimSpace(*shardsFlag); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			if n < 1 {
				return fmt.Errorf("-shards %d must be positive", n)
			}
			shardCount = n
		} else {
			shardAddrs = splitAddrs(v)
			if len(shardAddrs) == 0 {
				return fmt.Errorf("-shards %q is neither a count nor an address list", v)
			}
			for _, a := range shardAddrs {
				if !strings.HasPrefix(a, "tcp://") {
					return fmt.Errorf("-shards entry %q is not a tcp://host:port address", a)
				}
			}
			shardCount = len(shardAddrs)
		}
	}

	switch *role {
	case "worker":
		if *listen == "" {
			return fmt.Errorf("worker role needs -listen")
		}
		lis, err := net.Listen("tcp", *listen)
		if err != nil {
			return fmt.Errorf("listen: %w", err)
		}
		defer lis.Close()
		fmt.Fprintf(out, "worker listening on %s\n", lis.Addr())
		for {
			if err := livecluster.ServeWorker(lis); err != nil {
				return err
			}
			fmt.Fprintln(out, "worker session complete")
			if !*serve {
				return nil
			}
		}

	case "host", "inproc":
		addrs := splitAddrs(*connect)
		n := *workers
		if *role == "host" {
			if len(addrs) == 0 {
				return fmt.Errorf("host role needs -connect")
			}
			n = len(addrs)
		}
		p := workload.DefaultParams(n)
		p.Seed = *seed
		p.NumTransactions = *txns
		p.SF = *sf
		p.Replication = *repl
		w, err := workload.Generate(p)
		if err != nil {
			return err
		}
		// Overload control, shared by the single cluster and (per shard) the
		// federation.
		var admCfg admission.Config
		if *admissionPolicy != "off" {
			pol, err := admission.ParsePolicy(*admissionPolicy)
			if err != nil {
				return err
			}
			admCfg = admission.Config{
				Policy:         pol,
				QueueCap:       *queueCap,
				RejectHopeless: true,
			}
		} else if *queueCap > 0 {
			// A bounded queue with no policy named: first-come, first-admitted.
			admCfg = admission.Config{Policy: admission.Reject, QueueCap: *queueCap}
		}
		if *admitQuick {
			if len(shardAddrs) > 0 {
				// The predicate is a local function object; the wire hello
				// cannot carry it to an out-of-process shard.
				return fmt.Errorf("-admit-quick requires in-process shards")
			}
			if n%shardCount != 0 {
				return fmt.Errorf("-admit-quick: -workers %d must divide evenly into -shards %d", n, shardCount)
			}
			// The quick-test's capacity is one scheduler domain, so each
			// shard's gate sees only its share of the workers.
			pred, err := policy.Default().NewPredicate(*algo, policy.Options{
				Search: core.SearchConfig{Workers: n / shardCount},
			})
			if err != nil {
				return err
			}
			if pred == nil {
				return fmt.Errorf("-admit-quick: policy %q defines no admission quick-test", *algo)
			}
			admCfg.Predicate = pred
		}
		var degrade *core.DegradeConfig
		if *degradeAfter > 0 {
			degrade = &core.DegradeConfig{After: *degradeAfter}
		}
		live := livecluster.Liveness{HeartbeatEvery: *heartbeat, Timeout: *timeout}
		pl, err := federation.ParsePlacement(*placement)
		if err != nil {
			return err
		}

		if *rejoin && len(shardAddrs) == 0 {
			return fmt.Errorf("-rejoin needs out-of-process shards (-shards tcp://...): an in-process shard has no process to restart")
		}
		if shardCount != 1 || len(shardAddrs) > 0 {
			if *role != "inproc" {
				return fmt.Errorf("-shards %s requires -role inproc: the federation drives its shards itself", *shardsFlag)
			}
			tp, err := federation.SplitWorkers(n, shardCount)
			if err != nil {
				return err
			}
			if *traceOut != "" || *progress > 0 {
				return fmt.Errorf("-trace and -progress attach to a single cluster; with -shards %s use -journal/-task-trace (federation-merged) or -debug-addr for the live per-shard view", *shardsFlag)
			}
			return runFederation(out, federation.Config{
				Workload:   w,
				Topology:   tp,
				Placement:  pl,
				Migrate:    *migrate,
				Algorithm:  experiment.Algorithm(*algo),
				Scale:      *scale,
				Faults:     plan,
				Liveness:   live,
				Admission:  admCfg,
				Degrade:    degrade,
				BatchCap:   *batchCap,
				ShardAddrs: shardAddrs,
				Recovery:   federation.Recovery{Rejoin: *rejoin, MaxRejoins: *rejoinMax},
			}, *debugAddr, *journalOut, *taskTraceOut)
		}

		// Observability: one observer feeds the registry and the journal;
		// the debug endpoint, the progress reporter and every -trace,
		// -journal and -task-trace export read from those two.
		var observer *obs.Observer
		if *debugAddr != "" || *traceOut != "" || *journalOut != "" || *taskTraceOut != "" || *progress > 0 {
			observer = obs.New(0)
		}
		cfg := livecluster.Config{
			Workload:  w,
			Algorithm: experiment.Algorithm(*algo),
			Scale:     *scale,
			Faults:    plan,
			Obs:       observer,
			Liveness:  live,
			Admission: admCfg,
			Degrade:   degrade,
		}
		if *role == "host" {
			cfg.Backend = func(clock *livecluster.Clock, inj *faultinject.Injector) (livecluster.Backend, error) {
				return livecluster.NewTCPBackend(clock, w, addrs, livecluster.TCPOptions{
					Liveness: cfg.Liveness,
					Inject:   inj,
					Obs:      observer,
				})
			}
		}
		c, err := livecluster.New(cfg)
		if err != nil {
			return err
		}
		if *debugAddr != "" {
			srv, err := obs.Serve(*debugAddr, observer)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(out, "debug endpoint: %s (/metrics /healthz /journal /debug/pprof)\n", srv.URL())
		}
		// Flush the journal and trace on every exit path — a drained run, a
		// run error, anything — so an interrupted run still leaves its
		// flight recorder behind.
		defer func() {
			if *traceOut != "" {
				if werr := writeTrace(*traceOut, observer, out); werr != nil && retErr == nil {
					retErr = werr
				}
			}
			if *journalOut != "" {
				if werr := writeJournal(*journalOut, observer, out); werr != nil && retErr == nil {
					retErr = werr
				}
			}
			if *taskTraceOut != "" {
				entries, _ := observer.Journal().Export()
				if werr := writeTaskTrace(*taskTraceOut, entries, out); werr != nil && retErr == nil {
					retErr = werr
				}
			}
		}()

		// Graceful shutdown: the first SIGINT/SIGTERM stops admission and
		// drains the admitted backlog for up to -drain; a second signal
		// exits immediately.
		sigCh := make(chan os.Signal, 2)
		signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigCh)
		go func() {
			s := <-sigCh
			fmt.Fprintf(os.Stderr, "rtcluster: %v: draining for up to %v (signal again to exit now)\n", s, *drain)
			c.Stop(*drain)
			<-sigCh
			fmt.Fprintln(os.Stderr, "rtcluster: second signal: exiting now")
			os.Exit(1)
		}()

		stopProgress := observer.StartProgress(os.Stderr, *progress)
		start := time.Now()
		res, err := c.Run()
		stopProgress()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", res)
		fmt.Fprintf(out, "hit ratio: %.1f%%  makespan: %v (virtual)  wall time: %v\n",
			100*res.HitRatio(), time.Duration(res.Makespan), time.Since(start).Round(time.Millisecond))
		if res.WorkerFailures > 0 || res.Rerouted > 0 || res.LostToFailure > 0 {
			fmt.Fprintf(out, "faults: %d worker(s) failed, %d task(s) re-routed, %d lost to failure\n",
				res.WorkerFailures, res.Rerouted, res.LostToFailure)
		}
		if res.Shed > 0 || res.Overloads > 0 || res.Degradations > 0 {
			fmt.Fprintf(out, "overload: %d task(s) shed (%d hopeless, %d queue-full, %d shutdown, %d infeasible), %d deferred deliveries, %d degradation(s)/%d recoveries\n",
				res.Shed, res.ShedHopeless, res.ShedQueueFull, res.ShedShutdown, res.ShedInfeasible,
				res.Overloads, res.Degradations, res.Recoveries)
		}
		return nil

	default:
		return fmt.Errorf("unknown role %q (want inproc, host or worker)", *role)
	}
}

// runFederation executes the sharded path: one router in front of N
// in-process scheduler shards sharing a virtual clock. The run replays the
// whole workload; the summary reports each shard, the folded federation
// view, and the routing counters, and the accounting identities are
// verified before success is reported.
func runFederation(out io.Writer, cfg federation.Config, debugAddr, journalOut, taskTraceOut string) (retErr error) {
	f, err := federation.New(cfg)
	if err != nil {
		return err
	}
	migration := "off"
	if cfg.Migrate {
		migration = "on"
	}
	fmt.Fprintf(out, "topology: %s, placement %s, migration %s\n", cfg.Topology, cfg.Placement, migration)
	if debugAddr != "" {
		srv, err := obs.ServeHandler(debugAddr, f.Handler(), f.Registry())
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(out, "debug endpoint: %s (/metrics with per-shard labels, /healthz, /slo, /trace/task, /journal, /debug/pprof)\n", srv.URL())
	}
	// Flush the merged journal and task-flow trace on every exit path, like
	// the single-cluster flight recorder.
	defer func() {
		if journalOut != "" {
			entries, evicted := f.MergedEntries()
			if werr := writeMergedJournal(journalOut, entries, evicted, out); werr != nil && retErr == nil {
				retErr = werr
			}
		}
		if taskTraceOut != "" {
			entries, _ := f.MergedEntries()
			if werr := writeTaskTrace(taskTraceOut, entries, out); werr != nil && retErr == nil {
				retErr = werr
			}
		}
	}()
	start := time.Now()
	res, err := f.Run()
	if err != nil {
		return err
	}
	for i, s := range res.Shards {
		fmt.Fprintf(out, "shard %d: %s\n", i, s)
	}
	comb := res.Combined()
	fmt.Fprintf(out, "federation: %s\n", comb)
	fmt.Fprintf(out, "routing: %d routed, %d bounced (%d migrated, %d rejected)\n",
		res.Routed, res.Bounced, res.Migrated, res.Rejected)
	if res.Salvaged > 0 || res.SalvageLost > 0 || res.Rejoins > 0 {
		fmt.Fprintf(out, "recovery: %d task(s) salvaged off dead shards, %d salvage-lost, %d shard rejoin(s)\n",
			res.Salvaged, res.SalvageLost, res.Rejoins)
	}
	fmt.Fprintf(out, "hit ratio: %.1f%%  makespan: %v (virtual)  wall time: %v\n",
		100*comb.HitRatio(), time.Duration(comb.Makespan), time.Since(start).Round(time.Millisecond))
	return res.Reconcile()
}

// writeTrace exports the observer's journal as the worker-track Chrome
// trace.
func writeTrace(path string, observer *obs.Observer, out io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer f.Close()
	entries, evicted := observer.Journal().Export()
	if err := obs.WriteChromeTrace(f, entries, evicted); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Fprintf(out, "wrote %s (%d journal entries, %d evicted) — open in chrome://tracing or Perfetto\n", path, len(entries), evicted)
	return nil
}

// writeJournal exports the observer's structured event journal as JSONL.
func writeJournal(path string, observer *obs.Observer, out io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer f.Close()
	j := observer.Journal()
	if err := j.WriteJSONL(f); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Fprintf(out, "wrote %s (%d journal entries, %d evicted)\n", path, j.Len(), j.Evicted())
	return nil
}

// writeMergedJournal exports a federation-merged journal as JSONL.
func writeMergedJournal(path string, entries []obs.Entry, evicted int64, out io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer f.Close()
	if err := obs.WriteEntriesJSONL(f, entries, evicted); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Fprintf(out, "wrote %s (%d merged journal entries, %d evicted)\n", path, len(entries), evicted)
	return nil
}

// writeTaskTrace exports lifecycle entries as a task-per-track Chrome trace.
func writeTaskTrace(path string, entries []obs.Entry, out io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer f.Close()
	if err := obs.WriteTaskFlowTrace(f, entries); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Fprintf(out, "wrote %s (task-flow trace) — open in chrome://tracing or Perfetto\n", path)
	return nil
}

func splitAddrs(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
