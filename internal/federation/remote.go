package federation

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/federation/wire"
	"rtsads/internal/livecluster"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// errShardDown reports a submission refused because the shard has no live
// session. Distinct from a mid-write session loss: a refused batch never
// entered the session's outstanding ledger, so the caller salvages it
// directly instead of leaving it to the session's recovery pass.
var errShardDown = errors.New("shard is down")

// The shard lifecycle state machine (Up → Suspect → Down → Rejoining) runs
// at fixed settings; the rest derive from the session's liveness: the first
// redial delay is Liveness.RedialBackoff, and a shard turns suspect after
// suspectHeartbeats heartbeat periods without a frame.
const (
	// maxRejoins bounds how many times one shard may rejoin.
	maxRejoins = 4
	// rejoinRedials bounds dials per rejoin, and rejoinRedialCap caps the
	// doubling of their backoff.
	rejoinRedials   = 8
	rejoinRedialCap = 2 * time.Second
	// suspectHeartbeats quarantines a shard from placement when its frames
	// go stale this many heartbeats without the session dying —
	// reversible, unlike a death. Heartbeats off turn suspicion off.
	suspectHeartbeats = 3
	// The flap hysteresis: a shard dying flapThreshold times within
	// flapWindow rejoins on probation — alive and settling its own work,
	// but quarantined from placement for probation, so a flapping shard
	// cannot thrash migrations.
	flapWindow    = 10 * time.Second
	flapThreshold = 3
	probation     = 2 * time.Second
)

// remoteShard drives one out-of-process scheduler shard over the wire
// protocol, across one or more sessions (kill → rejoin). The router writes
// Submit/Verdict/Seal frames and the session its heartbeats; one read
// goroutine per session consumes everything the shard sends and keeps the
// latest Progress frame's load view, counts and sequence. A session dies
// once: the first Close of its wire.Session owns the death report.
//
// Lifecycle: Up (session live) → Suspect (frames stale: quarantined from
// placement, reversible) → Down (session lost: outstanding tasks are
// salvaged to siblings through the §4.3 migration gate and the session's
// books fold into prev/prevTotalSum) → Rejoining (capped jittered redial)
// → Up again, on Probation when the shard is flapping. A shard that
// exhausts its rejoin budget — or has Rejoin disabled — closes done and
// Wait synthesizes its result from the folded books.
//
// Accounting: submitted counts every task charged to this shard across
// all sessions. Per session, submitted = settled + outstanding +
// migrated-away; at death the outstanding set is split by salvage into
// migrated-away (books cancel: Total+1 and Bounced+1) and residual
// (charged lost). The Progress verdict counts and shed reasons are
// settle-derived on the shard side, exactly consistent with the settled-ID
// stream, so the fold is ledger-exact and every session's books balance
// across kill → salvage → rejoin.
type remoteShard struct {
	id   int
	f    *Federation
	addr string
	live livecluster.Liveness

	// submitted counts tasks the router handed this shard (first
	// placements and migrations, every session) — the dead-shard Total.
	submitted atomic.Int64

	mu    sync.Mutex
	sess  *wire.Session
	epoch int
	// prog is the live session's last Progress frame: the load view
	// placement reads, the counts the settle loop and the books read, and
	// the sequence a rejoin hello carries as its watermark.
	prog      wire.Progress
	lastHeard time.Time
	// outstanding is the submitted-minus-verdict ledger for the live
	// session: IDs enter before their Submit frame can reach the shard and
	// leave when a Progress frame reports them settled or a migration moves
	// them away — what remains at a session death is exactly the
	// salvageable set.
	outstanding map[task.ID]struct{}

	// prev holds the folded books of dead sessions and post-death stray
	// charges, with Total and Bounced from the router's ledger.
	prev metrics.Counts

	res *metrics.RunResult
	// journal holds the session's shipped journal as the wire bytes it
	// arrived in; Journal decodes it on demand.
	journal        wire.Journal
	deadErr        error
	sealed         bool
	rejoins        int
	deaths         []time.Time
	probationUntil time.Time
	quarantined    bool

	stopRejoin chan struct{}
	stopOnce   sync.Once
	done       chan struct{}
	doneOnce   sync.Once
}

// StripScheme removes an optional tcp:// prefix from a shard address.
func StripScheme(addr string) string {
	return strings.TrimPrefix(addr, "tcp://")
}

// dialShard builds shard i's handle and establishes its first session.
func (f *Federation) dialShard(i int, addr string) (*remoteShard, error) {
	live := f.cfg.Liveness.WithDefaults()
	s := &remoteShard{
		id:          i,
		f:           f,
		addr:        addr,
		live:        live,
		outstanding: make(map[task.ID]struct{}),
		stopRejoin:  make(chan struct{}),
		done:        make(chan struct{}),
	}
	if err := s.connect(false); err != nil {
		return nil, err
	}
	return s, nil
}

// hello builds the session hello: the run's configuration as every shard
// must see it, this session's shard index, and the rejoin watermark.
func (s *remoteShard) hello(rejoin bool) wire.Hello {
	f := s.f
	s.mu.Lock()
	epoch := s.epoch
	resumeSeq := s.prog.Seq
	s.mu.Unlock()
	return wire.Hello{
		Params:          f.cfg.Workload.Params,
		Shards:          f.tp.Shards,
		WorkersPerShard: f.tp.WorkersPerShard,
		Shard:           s.id,
		Algorithm:       string(f.cfg.Algorithm),
		Scale:           f.cfg.Scale,
		StartUnixNano:   f.clock.Start().UnixNano(),
		HeartbeatNano:   s.live.HeartbeatEvery.Nanoseconds(),
		TimeoutNano:     s.live.Timeout.Nanoseconds(),
		Admission:       f.cfg.Admission,
		SlackGuardNano:  f.cfg.SlackGuard.Nanoseconds(),
		JournalCap:      f.cfg.JournalCap,
		Rejoin:          rejoin,
		Epoch:           epoch,
		ResumeSeq:       resumeSeq,

		StragglerGraceNano: s.live.StragglerGrace.Nanoseconds(),
		StragglerStrikes:   s.live.StragglerStrikes,
	}
}

// connect opens a session to the shard's address (dial, preamble, hello),
// waits for the shard's first Progress frame, and starts the session's
// heartbeats and read loop. The first contact retries on the same capped
// jittered backoff schedule as the worker redial path (a shard process may
// still be binding its listener); rejoin dials retry in rejoinLoop, so a
// rejoin connect tries exactly once.
func (s *remoteShard) connect(rejoin bool) error {
	var sess *wire.Session
	var err error
	dial := func() error {
		sess, err = wire.Dial(StripScheme(s.addr), s.live.HelloTimeout, s.hello(rejoin))
		return err
	}
	if dial() != nil && !rejoin {
		s.backoff(s.live.RedialBackoff).Retry(s.live.Redials, s.pause, dial)
	}
	if err != nil {
		return err
	}

	// The shard answers the hello with its first Progress frame (or an error
	// frame if the hello was unusable) before the session goes async.
	var first wire.Progress
	typ, body, err := sess.Recv()
	switch {
	case err != nil:
		err = fmt.Errorf("first progress: %w", err)
	case typ == wire.TypeError:
		err = fmt.Errorf("shard refused: %s", body)
	case typ != wire.TypeProgress:
		err = fmt.Errorf("expected first progress, got frame type %d", typ)
	default:
		err = wire.DecodeProgress(body, &first)
	}
	if err != nil {
		sess.Close()
		return err
	}
	// The heartbeats keep the router→shard direction warm so the shard's
	// idle read bound doesn't fire between submissions.
	sess.Start(s.live.HeartbeatEvery, s.live.Timeout, nil)

	s.mu.Lock()
	s.epoch++
	s.sess = sess
	s.deadErr = nil
	s.prog = first
	s.journal = wire.Journal{} // chunks append per session
	s.lastHeard = time.Now()
	sealed := s.sealed
	if rejoin {
		s.rejoins++
		// Flap hysteresis: several deaths inside the window put the shard
		// on probation — alive and settling its own work, but quarantined
		// from placement until it proves stable.
		cut := time.Now().Add(-flapWindow)
		keep := s.deaths[:0]
		for _, d := range s.deaths {
			if d.After(cut) {
				keep = append(keep, d)
			}
		}
		s.deaths = keep
		if len(s.deaths) >= flapThreshold {
			s.probationUntil = time.Now().Add(probation)
		}
	}
	s.mu.Unlock()

	go s.readLoop(sess)
	if rejoin {
		s.f.noteRejoin(s.id)
	}
	if sealed {
		// The router sealed while this rejoin was in flight: seal the new
		// session immediately so the shard drains (nothing was placed) and
		// ends with a clean Bye instead of idling forever.
		s.seal(sess)
	}
	return nil
}

// backoff is this shard's redial schedule from base: capped, with the
// per-shard jitter stream.
func (s *remoteShard) backoff(base time.Duration) *livecluster.Backoff {
	return livecluster.NewBackoff(livecluster.RedialJitterSeed+uint64(s.id), base, rejoinRedialCap)
}

// pause sleeps for d, or returns false early when Seal cancels the
// redial/rejoin machinery.
func (s *remoteShard) pause(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.stopRejoin:
		return false
	}
}

// heard refreshes the suspect-detection watermark for a live session.
func (s *remoteShard) heard(sess *wire.Session) {
	s.mu.Lock()
	if s.sess == sess {
		s.lastHeard = time.Now()
	}
	s.mu.Unlock()
}

// sessionLost reports a broken session exactly once and kicks recovery off
// asynchronously. Asynchronously matters: the caller may hold f.mu (a
// salvage pass submitting to this shard), and recovery itself needs f.mu
// to salvage — running it inline could deadlock two dying shards against
// each other.
func (s *remoteShard) sessionLost(sess *wire.Session, err error) {
	if sess.Close() {
		go s.recover(sess, err)
	}
}

// recover handles one session death: mark the shard down, salvage the
// session's outstanding tasks through the migration gate, fold its books,
// then rejoin (with backoff) or give up.
//
// A session that breaks after its Result was stored is not a death: the
// shard's run is over and its books are final, so the handle ends as on Bye
// — with whatever part of the journal arrived — instead of folding the
// ledger on top of the real result. The read loop stores a Result only
// while the session is current, under the same lock, so a Result either
// precedes this decision or is dropped.
func (s *remoteShard) recover(sess *wire.Session, err error) {
	s.mu.Lock()
	if s.sess != sess {
		s.mu.Unlock()
		return // a stale report about an already-replaced session
	}
	if s.res != nil {
		s.mu.Unlock()
		s.finish(sess)
		return
	}
	s.sess = nil
	s.deadErr = err
	s.prog.Load.Alive = 0
	s.deaths = append(s.deaths, time.Now())
	rejoins := s.rejoins
	s.mu.Unlock()

	s.f.recoverShard(s)

	s.mu.Lock()
	sealed := s.sealed
	s.mu.Unlock()
	if sealed || !s.f.cfg.Rejoin || rejoins >= maxRejoins {
		s.shutdown()
		return
	}
	s.rejoinLoop()
}

// rejoinLoop redials the shard's address with capped jittered backoff
// until a session comes up, the attempt budget runs out, or Seal cancels
// the wait.
func (s *remoteShard) rejoinLoop() {
	rejoin := func() error { return s.connect(true) }
	if s.backoff(s.live.RedialBackoff).Retry(rejoinRedials, s.pause, rejoin) != nil {
		s.shutdown()
	}
}

// shutdown closes the handle permanently: Wait returns the folded books.
func (s *remoteShard) shutdown() {
	s.mu.Lock()
	s.prog.Load.Alive = 0
	s.prog.Load.Sealed = true
	s.mu.Unlock()
	s.doneOnce.Do(func() { close(s.done) })
}

// finish records a clean end of session (result and journal received).
func (s *remoteShard) finish(sess *wire.Session) {
	sess.Close()
	s.mu.Lock()
	if s.sess == sess {
		s.sess = nil
	}
	s.sealed = true
	s.prog.Load.Sealed = true
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stopRejoin) })
	s.doneOnce.Do(func() { close(s.done) })
}

// readLoop consumes every frame one session sends. Rejects are answered
// synchronously with a Verdict so the shard's host loop sees the same
// blocking bounce semantics as an in-process OnReject callback.
func (s *remoteShard) readLoop(sess *wire.Session) {
	for {
		typ, body, err := sess.Recv()
		if err != nil {
			s.sessionLost(sess, fmt.Errorf("federation: shard %d connection lost: %w", s.id, err))
			return
		}
		s.heard(sess)
		switch typ {
		case wire.TypeProgress:
			// Decoded in place while the session is current; the settled IDs
			// leave the salvageable set. A frame that fails to decode leaves
			// prog as it was, and the session dies.
			s.mu.Lock()
			if s.sess == sess {
				err = wire.DecodeProgress(body, &s.prog)
				for _, id := range s.prog.Settled {
					delete(s.outstanding, task.ID(id))
				}
			}
			s.mu.Unlock()
			if err != nil {
				s.sessionLost(sess, fmt.Errorf("federation: shard %d progress: %w", s.id, err))
				return
			}
		case wire.TypeHeartbeat:
			// Liveness only; the read bound starting over is the point.
		case wire.TypeReject:
			rej, err := wire.DecodeReject(body)
			if err != nil {
				s.sessionLost(sess, err)
				return
			}
			ok := s.f.onReject(s.id, task.ID(rej.ID), admission.Reason(rej.Reason), simtime.Instant(rej.NowNano))
			err = sess.SendWith(wire.TypeVerdict, func(dst []byte) []byte {
				return wire.EncodeVerdict(dst, wire.Verdict{ID: rej.ID, Accepted: ok})
			})
			if err != nil {
				s.sessionLost(sess, fmt.Errorf("federation: shard %d verdict write: %w", s.id, err))
				return
			}
		case wire.TypeResult:
			// The result must repeat the books of the final Progress frame,
			// which reached this session first.
			res := s.blank()
			err = metrics.DecodeResult(body, res)
			s.mu.Lock()
			if err == nil && s.sess == sess {
				if res.Counts() != s.prog.Counts {
					err = fmt.Errorf("books %v differ from the final progress frame's %v", res.Counts(), s.prog.Counts)
				} else {
					s.res = res
				}
			}
			s.mu.Unlock()
			if err != nil {
				s.sessionLost(sess, fmt.Errorf("federation: shard %d result: %w", s.id, err))
				return
			}
		case wire.TypeJournal:
			// The journal arrives in bounded chunks, no more entries than the
			// JournalCap the hello sent. Each is checked and kept as its wire
			// bytes; nothing decodes until Journal asks.
			s.mu.Lock()
			err = s.journal.Add(body, s.f.cfg.JournalCap)
			s.mu.Unlock()
			if err != nil {
				s.sessionLost(sess, fmt.Errorf("federation: shard %d journal: %w", s.id, err))
				return
			}
		case wire.TypeError:
			s.sessionLost(sess, fmt.Errorf("federation: shard %d reported: %s", s.id, body))
			return
		case wire.TypeBye:
			sess.CloseWrite() // stop heartbeating: the shard reads until we close
			s.finish(sess)
			return
		default:
			s.sessionLost(sess, fmt.Errorf("federation: shard %d sent unknown frame type %d", s.id, typ))
			return
		}
	}
}

// SubmitBatch encodes the batch into the session's reusable write buffer
// and sends one Submit frame, waiting at most the liveness timeout for the
// socket to take it. Only a successful write charges the shard's Total: the
// migration path treats a failed submit as a declined migration (the task
// stays with its current owner), and routeBatch charges and salvages
// failed first placements itself. The batch's IDs enter the outstanding
// ledger before the frame can reach the shard — a Progress frame settling
// one of them arrives strictly after the write, so it never races ahead of its
// own ledger entry — and leave it again if the write fails.
func (s *remoteShard) SubmitBatch(ts []*task.Task) error {
	s.mu.Lock()
	sess := s.sess
	if sess == nil {
		s.mu.Unlock()
		return fmt.Errorf("federation: shard %d: %w", s.id, errShardDown)
	}
	for _, t := range ts {
		s.outstanding[t.ID] = struct{}{}
	}
	s.mu.Unlock()

	err := sess.SendWith(wire.TypeSubmit, func(dst []byte) []byte { return wire.AppendSubmit(dst, ts) })
	if err != nil {
		s.mu.Lock()
		for _, t := range ts {
			delete(s.outstanding, t.ID)
		}
		s.mu.Unlock()
		s.sessionLost(sess, fmt.Errorf("federation: shard %d submit: %w", s.id, err))
		return err
	}
	s.submitted.Add(int64(len(ts)))
	return nil
}

// chargeLost charges n first-placement tasks that could not be delivered
// to this (dead) shard: the router routed them here, so they are this
// shard's to account — they join its Total, and the salvage pass decides
// whether each migrates away (bounce, books cancel) or settles lost.
func (s *remoteShard) chargeLost(n int) {
	s.submitted.Add(int64(n))
}

// forget removes a task the router migrated off this shard from the
// outstanding ledger: its fate now belongs to the sibling.
func (s *remoteShard) forget(id task.ID) {
	s.mu.Lock()
	delete(s.outstanding, id)
	s.mu.Unlock()
}

// outstandingIDs snapshots the salvageable set.
func (s *remoteShard) outstandingIDs() []task.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]task.ID, 0, len(s.outstanding))
	for id := range s.outstanding {
		ids = append(ids, id)
	}
	return ids
}

// stillOutstanding re-checks one ID at salvage time: a concurrent failed
// SubmitBatch may have withdrawn its tasks after the salvage snapshot.
func (s *remoteShard) stillOutstanding(id task.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.outstanding[id]
	return ok
}

// fold closes a dead session's books. bouncesNow is the router's
// cumulative accepted-bounce count for this shard, read under f.mu (the
// caller holds it), so the salvage pass that just ran is included. The
// session contributed: settled tasks (by verdict), residual outstanding
// tasks (charged lost — they provably could not make their deadline
// anywhere), and migrated-away tasks (bounces since the last fold). Their
// sum is exactly the tasks submitted during the session, so the folded Total
// stays ledger-exact.
func (s *remoteShard) fold(bouncesNow int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &s.prog.Counts
	c[metrics.CountLost] += int64(len(s.outstanding))
	c[metrics.CountBounced] = bouncesNow - s.prev[metrics.CountBounced]
	c[metrics.CountTotal] = c.Settled() + c[metrics.CountBounced]
	s.prev = s.merged()
	*c = metrics.Counts{}
	s.outstanding = make(map[task.ID]struct{})
}

// merged adds the live session's counts to the folded books. Caller holds
// s.mu.
func (s *remoteShard) merged() metrics.Counts {
	m := s.prev
	for k, n := range s.prog.Counts {
		m[k] += n
	}
	return m
}

// foldStray folds one post-death first placement straight into the closed
// books: no future fold will cover tasks charged after a session's death.
// Caller holds f.mu (the salvage pass that decided the task's fate).
func (s *remoteShard) foldStray(salvaged bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prev[metrics.CountTotal]++
	if salvaged {
		s.prev[metrics.CountBounced]++
	} else {
		s.prev[metrics.CountLost]++
	}
}

// LoadSummary is the shard's load view as of its last Progress frame: one
// host phase stale, like an in-process shard's.
func (s *remoteShard) LoadSummary() livecluster.Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prog.Load
}

// Counters returns the live session's counts as of its last Progress frame.
func (s *remoteShard) Counters() metrics.Counts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prog.Counts
}

// Placeable reports whether the router may place new work here: a live,
// unsealed session that is neither suspect (no frame for
// suspectHeartbeats heartbeats) nor on post-flap probation. The
// quarantine counter ticks on each live→quarantined edge.
func (s *remoteShard) Placeable() bool {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	up := s.sess != nil && !s.sealed
	after := suspectHeartbeats * s.live.HeartbeatEvery
	suspect := up && after > 0 && now.Sub(s.lastHeard) > after
	onProbation := up && now.Before(s.probationUntil)
	placeable := up && !suspect && !onProbation
	if up && !placeable {
		if !s.quarantined {
			s.quarantined = true
			s.f.noteQuarantine()
		}
	} else {
		s.quarantined = false
	}
	return placeable
}

// SettledTasks counts this shard's tasks whose fate is decided, across
// sessions. With no live session every task charged here has a decided
// fate — settled, salvaged away (excluded via the router's bounce ledger)
// or lost — so the count is submitted minus accepted bounces, exact even
// mid-recovery. With a session up, the folded books (which carry dead
// sessions' residuals under CountLost) add to the live session's counts.
func (s *remoteShard) SettledTasks() int64 {
	s.mu.Lock()
	down := s.sess == nil && s.res == nil
	settled := s.merged().Settled()
	s.mu.Unlock()
	if down {
		return s.submitted.Load() - s.f.acceptedBounces(s.id)
	}
	return settled
}

// Seal closes the shard's feed and cancels any redial/rejoin in flight.
func (s *remoteShard) Seal() {
	s.mu.Lock()
	s.sealed = true
	sess := s.sess
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stopRejoin) })
	if sess == nil {
		// Down: the closed stopRejoin channel ends any rejoin loop, which
		// closes done; if recovery already gave up, done is closed already.
		return
	}
	s.seal(sess)
}

// seal closes the shard's feed on one session.
func (s *remoteShard) seal(sess *wire.Session) {
	if err := sess.Send(wire.TypeSeal, nil); err != nil {
		s.sessionLost(sess, fmt.Errorf("federation: shard %d seal: %w", s.id, err))
	}
}

// Wait blocks until the handle closes for good: a clean final session
// (result received) or a permanent death. Either way the folded books of
// earlier sessions merge in, so the returned result spans every session
// and Reconcile's per-shard identity holds across kill → salvage → rejoin.
// A dead shard yields a synthesized result and no error, because losing a
// shard is a survivable event the books absorb, not a run failure.
func (s *remoteShard) Wait() (*metrics.RunResult, error) {
	<-s.done
	// The router's bounce ledger is exact where a dead session's last
	// counter snapshot may trail; read it before taking s.mu (lock order:
	// f.mu never follows s.mu).
	bounces := s.f.acceptedBounces(s.id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.res != nil {
		out := *s.res
		out.AddCounts(s.prev)
		return &out, nil
	}
	// The remainder — tasks in no other bucket, worker-level losses and
	// salvage residuals included — is lost with the shard. Counts and the
	// submit count race only while frames are in flight; clamping keeps the
	// synthesized books sane.
	total := s.submitted.Load()
	m := s.merged()
	m[metrics.CountLost] = 0
	m[metrics.CountBounced] = bounces
	decided := m.Settled() + bounces
	m[metrics.CountTotal] = max(total, decided)
	m[metrics.CountLost] = max(0, total-decided)
	res := s.blank()
	res.AddCounts(m)
	return res, nil
}

// blank is a result labelled as this shard's: the configured algorithm and
// the shard's worker count, which no frame carries.
func (s *remoteShard) blank() *metrics.RunResult {
	return &metrics.RunResult{Algorithm: string(s.f.cfg.Algorithm), Workers: s.f.tp.WorkersPerShard}
}

// Journal returns whatever journal the shard shipped at seal time. A
// shard that died mid-run never shipped one: its spans are lost with it,
// which the merged stream reports via the eviction count staying honest
// (nothing is fabricated). Each call decodes the kept chunks afresh.
func (s *remoteShard) Journal() ([]obs.Entry, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journal.Entries(), s.journal.Evicted()
}

// Rejoins reports how many times this shard re-handshook after a death.
func (s *remoteShard) Rejoins() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rejoins
}

// Err reports why the shard's last session died (nil while live or after
// a clean finish).
func (s *remoteShard) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deadErr
}
