package federation

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/federation/wire"
	"rtsads/internal/livecluster"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/policy"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// ServeShardOptions tunes one shard-serving session.
type ServeShardOptions struct {
	// HelloTimeout bounds how long the session may take to complete the
	// handshake and deliver the hello (default 30s).
	HelloTimeout time.Duration
	// Obs, when non-nil, is used instead of a session-local observer —
	// the serving process can expose its own /metrics.
	Obs *obs.Observer
}

// journalChunk bounds the entries in one Journal frame, so no single
// marshal, write or read of the end-of-session journal can outlast the
// liveness timeout, and every chunk that lands feeds the router's read
// deadline.
const journalChunk = 2048

// shardServer is one shard session: the cluster, its observer, and the wire
// session back to the router. Writers (summary ticker, load pusher, reject
// callbacks, final results) serialize inside the session; one goroutine
// reads.
type shardServer struct {
	sess    *wire.Session
	cl      *livecluster.Cluster
	o       *obs.Observer
	timeout time.Duration

	// arena backs the tasks decoded from Submit frames; the cluster holds
	// them until they settle, so slots live for the session. Read loop only.
	arena taskArena

	vmu      sync.Mutex
	verdicts map[int32]chan bool

	// smu guards the checkpoint state: the settle buffer and verdict
	// counts fed by the observer's OnSettle hook, plus the per-session
	// checkpoint sequence. Both are updated in one critical section per
	// settle, so a checkpoint's counter snapshot covers exactly the IDs
	// shipped through its sequence — never more, never less.
	smu        sync.Mutex
	settled    []int32
	ckptCounts map[string]int64
	ckptSeq    uint64
}

// runOutcome carries the cluster run's return values across a channel.
type runOutcome struct {
	res *metrics.RunResult
	err error
}

// ServeShard runs one scheduler shard behind the given connection: it
// completes the wire handshake, regenerates the workload from the hello's
// parameters (the task database never crosses the wire), projects this
// shard's slice, and runs a live cluster fed exclusively by the router's
// Submit frames until the router seals the feed. The final result and
// journal ship back before the session closes. The caller owns the
// listener; ServeShard owns (and closes) conn.
func ServeShard(nc net.Conn, opt ServeShardOptions) error {
	defer nc.Close()
	srv, runErrc, err := openShard(nc, opt)
	if err != nil {
		return err
	}
	return srv.serve(runErrc)
}

// openShard takes a fresh connection through handshake and hello, starts
// the cluster the hello describes and answers with the first summary — the
// router blocks on it before going async.
func openShard(nc net.Conn, opt ServeShardOptions) (*shardServer, <-chan runOutcome, error) {
	sess, body, err := wire.Accept(nc, livecluster.Liveness{HelloTimeout: opt.HelloTimeout}.WithDefaults().HelloTimeout)
	if err != nil {
		return nil, nil, fmt.Errorf("federation: %w", err)
	}
	var hello wire.Hello
	if err := json.Unmarshal(body, &hello); err != nil {
		return nil, nil, refuse(sess, fmt.Errorf("federation: decode hello: %w", err))
	}
	srv, runErrc, err := startShard(sess, hello, opt)
	if err != nil {
		return nil, nil, refuse(sess, err)
	}
	// The shard sends no Heartbeat frames: its summaries double as them.
	sess.Start(0, srv.timeout, nil)
	if err := srv.sendSummary(); err != nil {
		return nil, nil, err
	}
	return srv, runErrc, nil
}

// serve runs an opened session to its end: the summary ticker, the load
// pusher and the read loop until the cluster's run returns, then the
// closing frames.
func (s *shardServer) serve(runErrc <-chan runOutcome) error {
	stopTick := make(chan struct{})
	var tickWG sync.WaitGroup
	tickWG.Add(2)
	go func() {
		defer tickWG.Done()
		s.summaryLoop(stopTick)
	}()
	go func() {
		defer tickWG.Done()
		s.loadLoop(stopTick)
	}()
	readErrc := make(chan error, 1)
	go s.readLoop(readErrc)

	var sessionErr error
	var out runOutcome
	select {
	case err := <-readErrc:
		// The router vanished mid-run: no verdict or result this session
		// produces can be delivered, and the router salvages or charges the
		// outstanding work on its own books the moment it notices the death.
		// Abort with zero grace — shed the undelivered backlog, let in-flight
		// worker jobs drain — so a serving loop's listener frees up for the
		// router's rejoin dial instead of blocking behind a useless drain.
		sessionErr = err
		s.cl.Seal()
		s.cl.Stop(0)
		out = <-runErrc
	case out = <-runErrc:
	}
	close(stopTick)
	tickWG.Wait()
	if sessionErr != nil {
		return sessionErr
	}
	if out.err != nil {
		s.sess.Send(wire.TypeError, []byte(out.err.Error()))
		return out.err
	}

	// Ship the closing state: final counters, a final checkpoint covering
	// every verdict, the result, the journal, then a clean goodbye.
	if err := s.sendSummary(); err != nil {
		return err
	}
	if err := s.sendCheckpoint(); err != nil {
		return err
	}
	if err := s.sess.SendJSON(wire.TypeResult, out.res); err != nil {
		return err
	}
	entries, evicted := s.o.Journal().Export()
	for {
		n := min(len(entries), journalChunk)
		if err := s.sess.SendJSON(wire.TypeJournal, wire.JournalExport{Entries: entries[:n], Evicted: evicted}); err != nil {
			return err
		}
		if entries = entries[n:]; len(entries) == 0 {
			break
		}
	}
	return s.sess.Send(wire.TypeBye, nil)
}

// refuse reports a setup error to the router before failing the session.
func refuse(sess *wire.Session, err error) error {
	sess.Send(wire.TypeError, []byte(err.Error()))
	return err
}

// startShard builds the cluster a hello describes and starts its run.
func startShard(sess *wire.Session, hello wire.Hello, opt ServeShardOptions) (*shardServer, <-chan runOutcome, error) {
	tp := Topology{Shards: hello.Shards, WorkersPerShard: hello.WorkersPerShard}
	if err := tp.Validate(); err != nil {
		return nil, nil, err
	}
	if hello.Shard < 0 || hello.Shard >= tp.Shards {
		return nil, nil, fmt.Errorf("federation: shard %d out of range [0,%d)", hello.Shard, tp.Shards)
	}
	w, err := workload.Generate(hello.Params)
	if err != nil {
		return nil, nil, err
	}
	if got, want := w.Params.Workers, tp.TotalWorkers(); got != want {
		return nil, nil, fmt.Errorf("federation: workload has %d workers but topology needs %d", got, want)
	}
	clock, err := livecluster.NewClockAt(time.Unix(0, hello.StartUnixNano), hello.Scale)
	if err != nil {
		return nil, nil, err
	}
	cfg := helloShardConfig(hello)
	o := opt.Obs
	if o == nil {
		o = obs.New(hello.JournalCap)
	}
	srv := &shardServer{
		sess:       sess,
		o:          o,
		timeout:    cfg.Liveness.WithDefaults().Timeout,
		verdicts:   make(map[int32]chan bool),
		ckptCounts: make(map[string]int64),
	}
	// Every terminal verdict lands in the checkpoint buffer together with
	// its bucket count — the consistency sendCheckpoint's salvage
	// accounting depends on.
	o.OnSettle(srv.noteSettled)
	cfg.Workload = ShardWorkload(w, tp, hello.Shard)
	cfg.Clock = clock
	cfg.OnReject = srv.onReject
	cfg.Obs = o
	cl, err := livecluster.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	srv.cl = cl
	runErrc := make(chan runOutcome, 1)
	go func() {
		res, err := cl.Run()
		runErrc <- runOutcome{res: res, err: err}
	}()
	return srv, runErrc, nil
}

// helloShardConfig is the cluster configuration a hello carries — what
// Federation.shardConfig builds in-process — minus the session's identity
// (workload slice, clock, observer, reject hook), which startShard adds.
func helloShardConfig(hello wire.Hello) livecluster.Config {
	return livecluster.Config{
		Algorithm: policy.Algorithm(hello.Algorithm),
		Scale:     hello.Scale,
		External:  true,
		Liveness: livecluster.Liveness{
			HeartbeatEvery:   time.Duration(hello.HeartbeatNano),
			Timeout:          time.Duration(hello.TimeoutNano),
			Redials:          hello.Redials,
			StragglerGrace:   time.Duration(hello.StragglerGraceNano),
			StragglerStrikes: hello.StragglerStrikes,
		},
		Admission:    hello.Admission,
		Backpressure: hello.Backpressure,
		SlackGuard:   time.Duration(hello.SlackGuardNano),
		Degrade:      hello.Degrade,
	}
}

func (s *shardServer) sendSummary() error {
	return s.sess.SendJSON(wire.TypeSummary, wire.Summary{
		Load:     s.cl.LoadSummary(),
		Counters: s.o.Registry().Snapshot(),
	})
}

// noteSettled is the observer's OnSettle hook: the settled ID and its
// verdict bucket are recorded in one critical section, so the cumulative
// counts always cover exactly the buffered IDs.
func (s *shardServer) noteSettled(id task.ID, verdict string) {
	s.smu.Lock()
	s.settled = append(s.settled, int32(id))
	s.ckptCounts[verdict]++
	s.smu.Unlock()
}

// sendCheckpoint ships the settled IDs accumulated since the previous
// checkpoint plus the cumulative settle-derived verdict counts. Because
// buffer and counts are maintained atomically per settle, the counts
// charge exactly the tasks whose IDs shipped through this sequence — the
// invariant that lets the router treat "submitted minus checkpointed
// minus migrated-away" as exactly the salvageable outstanding set, with
// no task double-counted or dropped across a kill.
func (s *shardServer) sendCheckpoint() error {
	sealed := s.cl.LoadSummary().Sealed
	s.smu.Lock()
	ids := s.settled
	s.settled = nil
	counters := make(map[string]int64, len(s.ckptCounts))
	for k, v := range s.ckptCounts {
		counters[k] = v
	}
	s.ckptSeq++
	seq := s.ckptSeq
	s.smu.Unlock()
	return s.sess.SendJSON(wire.TypeCheckpoint, wire.Checkpoint{
		Seq:      seq,
		Settled:  ids,
		Counters: counters,
		Sealed:   sealed,
	})
}

// summaryLoop republishes the load summary and counters at the heartbeat
// cadence; each summary doubles as the shard→router heartbeat.
func (s *shardServer) summaryLoop(stop <-chan struct{}) {
	ticker := time.NewTicker(s.timeout / 5)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		if s.sendSummary() != nil {
			return
		}
		if s.sendCheckpoint() != nil {
			return
		}
	}
}

// loadLoop pushes the cluster's load view to the router as a binary Load
// frame whenever the host loop published a changed one, so the router's
// view of this shard is one phase stale — what it is in process — instead
// of one summary interval stale. The cluster's tick coalesces: a slow
// socket costs skipped intermediate views, never a blocked host loop. The
// frame is encoded into the session's reused buffer.
func (s *shardServer) loadLoop(stop <-chan struct{}) {
	encode := func(dst []byte) []byte { return wire.EncodeLoad(dst, s.cl.LoadSummary()) }
	for {
		select {
		case <-stop:
			return
		case <-s.cl.LoadChanged():
		}
		if s.sess.SendWith(wire.TypeLoad, encode) != nil {
			return
		}
	}
}

// onReject is the cluster's bounce callback: it round-trips one Reject
// frame to the router and blocks the host loop on the verdict, exactly
// like an in-process OnReject call. Silence past the liveness timeout is
// a declined migration — the shard sheds locally rather than stranding
// the task.
func (s *shardServer) onReject(t *task.Task, reason admission.Reason, now simtime.Instant) bool {
	id := int32(t.ID)
	ch := make(chan bool, 1)
	s.vmu.Lock()
	s.verdicts[id] = ch
	s.vmu.Unlock()
	defer func() {
		s.vmu.Lock()
		delete(s.verdicts, id)
		s.vmu.Unlock()
	}()
	rej := wire.Reject{ID: id, Reason: string(reason), NowNano: int64(now)}
	if s.sess.SendWith(wire.TypeReject, func(dst []byte) []byte { return wire.EncodeReject(dst, rej) }) != nil {
		return false
	}
	select {
	case ok := <-ch:
		return ok
	case <-time.After(s.timeout):
		return false
	}
}

// readLoop consumes the router's frames until the connection breaks. The
// idle bound is the liveness timeout; the router's heartbeats keep it from
// firing between submissions.
func (s *shardServer) readLoop(errc chan<- error) {
	alloc := s.arena.alloc
	for {
		typ, body, err := s.sess.Recv()
		if err != nil {
			errc <- fmt.Errorf("federation: router connection lost: %w", err)
			return
		}
		switch typ {
		case wire.TypeSubmit:
			ts, err := wire.DecodeSubmit(body, alloc)
			if err != nil {
				errc <- err
				return
			}
			// Submit-after-seal only happens when the router's seal
			// crossed a submit in flight; the router's books already
			// treat sealing as the end, so dropping is correct.
			_ = s.cl.SubmitBatch(ts)
		case wire.TypeVerdict:
			v, err := wire.DecodeVerdict(body)
			if err != nil {
				errc <- err
				return
			}
			s.vmu.Lock()
			ch := s.verdicts[v.ID]
			s.vmu.Unlock()
			if ch != nil {
				ch <- v.Accepted
			}
		case wire.TypeSeal:
			s.cl.Seal()
		case wire.TypeHeartbeat:
			// Liveness only.
		case wire.TypeBye, wire.TypeError:
			errc <- fmt.Errorf("federation: router closed the session (frame type %d)", typ)
			return
		default:
			errc <- fmt.Errorf("federation: router sent unknown frame type %d", typ)
			return
		}
	}
}
