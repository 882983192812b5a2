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

// shardServer is one shard session: the cluster, its observer, and the wire
// session back to the router. Writers (progress reports, heartbeats, reject
// callbacks, final results) serialize inside the session; one goroutine
// reads.
type shardServer struct {
	sess    *wire.Session
	cl      *livecluster.Cluster
	o       *obs.Observer
	timeout time.Duration
	// journalCap is the router's JournalCap: the most journal entries it
	// accepts.
	journalCap int

	// arena backs the tasks decoded from Submit frames; the cluster holds
	// them until they settle, so slots live for the session. Read loop only.
	arena taskArena

	vmu      sync.Mutex
	verdicts map[int32]chan bool

	// smu guards prog, the next Progress frame. noteSettled books an ID with
	// its verdict (and a shed's reason), and appendProgress takes the IDs,
	// the counts and the next Seq, each in one critical section, so every
	// frame's counts cover exactly the IDs shipped through its Seq — never
	// more, never less — and its shed reasons sum to its Shed.
	smu  sync.Mutex
	prog wire.Progress
	// settledTick (buffered 1, coalescing) wakes progressLoop after a settle,
	// which need not change the load view.
	settledTick chan struct{}
}

// runOutcome carries the cluster run's return values across a channel.
type runOutcome struct {
	res *metrics.RunResult
	err error
}

// ServeShard runs one scheduler shard behind the given connection: it
// completes the wire handshake, draws the database, the replica placement
// and the transaction table from the hello's parameters (none of them
// crosses the wire, and the run's task list stays with the router), projects
// this shard's slice, and runs a live cluster fed exclusively by the router's
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
// the cluster the hello describes and answers with the first Progress frame
// — the router blocks on it before going async — then starts heartbeats, one
// per Timeout/5, to keep the router's read bound quiet while nothing changes.
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
	if err := sess.SendWith(wire.TypeProgress, srv.appendProgress); err != nil {
		return nil, nil, err
	}
	sess.Start(srv.timeout/5, srv.timeout, nil)
	return srv, runErrc, nil
}

// serve runs an opened session to its end: the progress reporter and the
// read loop until the cluster's run returns, then the closing frames.
func (s *shardServer) serve(runErrc <-chan runOutcome) error {
	defer s.sess.Close()
	stop := make(chan struct{})
	reported := make(chan struct{})
	go func() {
		defer close(reported)
		s.progressLoop(stop)
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
	close(stop)
	<-reported
	if sessionErr != nil {
		return sessionErr
	}
	if out.err != nil {
		s.sess.Send(wire.TypeError, []byte(out.err.Error()))
		return out.err
	}

	// Ship the closing state: a final Progress frame covering every verdict,
	// the result (the same books, which the router checks against that
	// frame), the journal, then a clean goodbye.
	if err := s.sess.SendWith(wire.TypeProgress, s.appendProgress); err != nil {
		return err
	}
	err := s.sess.SendWith(wire.TypeResult, func(dst []byte) []byte { return metrics.AppendResult(dst, out.res) })
	if err != nil {
		return err
	}
	if err := s.o.Journal().Visit(s.journalCap, s.shipJournal); err != nil {
		return err
	}
	// Bye, a half-close, then the read loop discards router frames until the
	// router closes its end (at most the liveness timeout): a router heartbeat
	// in flight lands in an open socket instead of drawing a reset that
	// discards whatever of the journal and Bye the router has not read yet.
	if err := s.sess.Send(wire.TypeBye, nil); err != nil {
		return err
	}
	if err := s.sess.CloseWrite(); err != nil {
		return err
	}
	select {
	case <-readErrc:
	case <-time.After(s.timeout):
	}
	return nil
}

// shipJournal sends the journal's blocks as they are stored, one Journal
// frame each (≈8 KB, so no single write or read of the end-of-session journal
// can outlast the liveness timeout, and every frame that lands feeds the
// router's read deadline), and one empty frame when there are none. It runs
// under the journal's lock, so the frames are one consistent cut however much
// is still recording. A serving process's own observer may keep more than
// the router accepts: Visit's limit then ships the newest journalCap entries
// and counts the rest as evicted.
func (s *shardServer) shipJournal(blocks []obs.Block, total int, evicted int64) error {
	if len(blocks) == 0 {
		blocks = []obs.Block{{}}
	}
	for _, b := range blocks {
		err := s.sess.SendWith(wire.TypeJournal, func(dst []byte) []byte {
			return wire.AppendJournalBlock(dst, total, evicted, b)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// refuse reports a setup error to the router before failing the session.
func refuse(sess *wire.Session, err error) error {
	sess.Send(wire.TypeError, []byte(err.Error()))
	return err
}

// startShard builds the cluster a hello describes and starts its run. Every
// check on the hello comes before the transaction table is drawn or the
// journal allocated — GenerateTable validates the parameters first — so a
// refused hello costs nothing however many transactions or journal entries
// it claims.
func startShard(sess *wire.Session, hello wire.Hello, opt ServeShardOptions) (*shardServer, <-chan runOutcome, error) {
	tp := Topology{Shards: hello.Shards, WorkersPerShard: hello.WorkersPerShard}
	if err := tp.Validate(); err != nil {
		return nil, nil, err
	}
	if hello.Shard < 0 || hello.Shard >= tp.Shards {
		return nil, nil, fmt.Errorf("federation: shard %d out of range [0,%d)", hello.Shard, tp.Shards)
	}
	if got, want := hello.Params.Workers, tp.TotalWorkers(); got != want {
		return nil, nil, fmt.Errorf("federation: workload has %d workers but topology needs %d", got, want)
	}
	if hello.JournalCap > obs.MaxJournalCap {
		return nil, nil, fmt.Errorf("federation: JournalCap %d exceeds the bound of %d entries", hello.JournalCap, obs.MaxJournalCap)
	}
	w, err := workload.GenerateTable(hello.Params)
	if err != nil {
		return nil, nil, err
	}
	clock, err := livecluster.NewClockAt(time.Unix(0, hello.StartUnixNano), hello.Scale)
	if err != nil {
		return nil, nil, err
	}
	cfg := helloShardConfig(hello)
	if hello.JournalCap <= 0 {
		hello.JournalCap = obs.DefaultJournalCap
	}
	o := opt.Obs
	if o == nil {
		o = obs.New(hello.JournalCap)
	}
	srv := &shardServer{
		sess:        sess,
		o:           o,
		timeout:     cfg.Liveness.WithDefaults().Timeout,
		journalCap:  hello.JournalCap,
		verdicts:    make(map[int32]chan bool),
		settledTick: make(chan struct{}, 1),
	}
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
			StragglerGrace:   time.Duration(hello.StragglerGraceNano),
			StragglerStrikes: hello.StragglerStrikes,
		},
		Admission:  hello.Admission,
		SlackGuard: time.Duration(hello.SlackGuardNano),
	}
}

// noteSettled is the observer's OnSettle hook: the settled ID and its
// verdict's counts are recorded in one critical section, so the cumulative
// counts always cover exactly the buffered IDs.
func (s *shardServer) noteSettled(id task.ID, k metrics.Count) {
	s.smu.Lock()
	s.prog.Settled = append(s.prog.Settled, int32(id))
	s.prog.Counts.Settle(k)
	s.smu.Unlock()
	select {
	case s.settledTick <- struct{}{}:
	default:
	}
}

// appendProgress is the SendWith encoder of the next Progress frame: the
// load view, the next Seq, the counts (the observer's beside the settled
// verdicts) and the IDs settled since the last frame, which it clears. It
// runs under the write lock, so frames leave in Seq order.
func (s *shardServer) appendProgress(dst []byte) []byte {
	load, counts := s.cl.LoadSummary(), s.o.Counts()
	s.smu.Lock()
	defer s.smu.Unlock()
	s.prog.Load = load
	s.prog.Seq++
	copy(s.prog.Counts[metrics.NumVerdicts:], counts[metrics.NumVerdicts:])
	dst = wire.AppendProgress(dst, &s.prog)
	s.prog.Settled = s.prog.Settled[:0]
	return dst
}

// progressLoop sends a Progress frame whenever the host loop published a
// changed load view or a task settled, so the router's view of this shard is
// one phase stale, as in process. Both ticks coalesce: a slow socket costs
// skipped frames, never a blocked host loop or a lost ID.
func (s *shardServer) progressLoop(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-s.cl.LoadChanged():
		case <-s.settledTick:
		}
		select { // one frame answers both ticks
		case <-s.cl.LoadChanged():
		case <-s.settledTick:
		default:
		}
		if s.sess.SendWith(wire.TypeProgress, s.appendProgress) != nil {
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
// firing between submissions. Submit frames decode into one reused slice:
// SubmitBatch copies the pointers out before the next frame.
func (s *shardServer) readLoop(errc chan<- error) {
	alloc := s.arena.alloc
	var batch []*task.Task
	for {
		typ, body, err := s.sess.Recv()
		if err != nil {
			errc <- fmt.Errorf("federation: router connection lost: %w", err)
			return
		}
		switch typ {
		case wire.TypeSubmit:
			var err error
			batch, err = wire.AppendDecodeSubmit(batch[:0], body, alloc)
			if err != nil {
				errc <- err
				return
			}
			// Submit-after-seal only happens when the router's seal
			// crossed a submit in flight; the router's books already
			// treat sealing as the end, so dropping is correct.
			_ = s.cl.SubmitBatch(batch)
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
