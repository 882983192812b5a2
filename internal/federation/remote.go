package federation

import (
	"encoding/json"
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

// remoteShard drives one out-of-process scheduler shard over the wire
// protocol, across one or more sessions (kill → rejoin). The router writes
// Submit/Verdict/Seal frames and the session its heartbeats; one read
// goroutine per session consumes everything the shard sends and keeps the
// latest load summary, counter snapshot and checkpoint state. A session
// dies once: the first Close of its wire.Session owns the death report.
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
// all sessions. Per session, submitted = checkpoint-settled + outstanding
// + migrated-away; at death the outstanding set is split by salvage into
// migrated-away (books cancel: Total+1 and Bounced+1) and residual
// (charged lost). The checkpoint counters are settle-derived on the shard
// side, exactly consistent with the settled-ID stream, so the fold is
// ledger-exact and Reconcile holds across kill → salvage → rejoin.
type remoteShard struct {
	id   int
	f    *Federation
	addr string
	live livecluster.Liveness
	rec  Recovery

	// submitted counts tasks the router handed this shard (first
	// placements and migrations, every session) — the dead-shard Total.
	submitted atomic.Int64

	mu        sync.Mutex
	sess      *wire.Session
	epoch     int
	summary   livecluster.Summary
	counters  map[string]int64 // session summary counters (display, Admitted)
	ckpt      map[string]int64 // session checkpoint verdict counters (accounting)
	ckptSeq   uint64
	lastHeard time.Time
	// outstanding is the submitted-minus-verdict ledger for the live
	// session: IDs enter before their Submit frame can reach the shard and
	// leave via checkpointed settlement or accepted migration — what
	// remains at a session death is exactly the salvageable set.
	outstanding map[task.ID]struct{}

	// Folded books of dead sessions (and post-death stray charges):
	prev          map[string]int64 // terminal buckets, incl. salvage residuals under MetricLost
	prevTotalSum  int
	bouncesFolded int64
	admittedPrev  int64

	res            *metrics.RunResult
	journal        []obs.Entry
	evicted        int64
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
		rec:         f.cfg.Recovery.withDefaults(live),
		outstanding: make(map[task.ID]struct{}),
		prev:        make(map[string]int64),
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
	resumeSeq := s.ckptSeq
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
		Redials:         s.live.Redials,
		Admission:       f.cfg.Admission,
		Backpressure:    f.cfg.Backpressure,
		SlackGuardNano:  f.cfg.SlackGuard.Nanoseconds(),
		JournalCap:      f.cfg.JournalCap,
		Degrade:         f.cfg.Degrade,
		Rejoin:          rejoin,
		Epoch:           epoch,
		ResumeSeq:       resumeSeq,

		StragglerGraceNano: s.live.StragglerGrace.Nanoseconds(),
		StragglerStrikes:   s.live.StragglerStrikes,
	}
}

// connect opens a session to the shard's address (dial, preamble, hello),
// waits for the shard's first load summary, and starts the session's
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

	// The shard answers the hello with its first summary (or an error
	// frame if the hello was unusable) before the session goes async.
	var sum wire.Summary
	typ, body, err := sess.Recv()
	switch {
	case err != nil:
		err = fmt.Errorf("first summary: %w", err)
	case typ == wire.TypeError:
		err = fmt.Errorf("shard refused: %s", body)
	case typ != wire.TypeSummary:
		err = fmt.Errorf("expected first summary, got frame type %d", typ)
	default:
		if err = json.Unmarshal(body, &sum); err != nil {
			err = fmt.Errorf("summary: %w", err)
		}
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
	s.summary = sum.Load
	s.counters = sum.Counters
	s.ckpt = nil
	s.ckptSeq = 0
	s.journal, s.evicted = nil, 0 // chunks append per session
	s.lastHeard = time.Now()
	sealed := s.sealed
	if rejoin {
		s.rejoins++
		// Flap hysteresis: several deaths inside the window put the shard
		// on probation — alive and settling its own work, but quarantined
		// from placement until it proves stable.
		cut := time.Now().Add(-s.rec.FlapWindow)
		keep := s.deaths[:0]
		for _, d := range s.deaths {
			if d.After(cut) {
				keep = append(keep, d)
			}
		}
		s.deaths = keep
		if len(s.deaths) >= s.rec.FlapThreshold {
			s.probationUntil = time.Now().Add(s.rec.Probation)
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
	return livecluster.NewBackoff(livecluster.RedialJitterSeed+uint64(s.id), base, s.rec.RedialCap)
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

func (s *remoteShard) applySummary(sess *wire.Session, body []byte) error {
	var sum wire.Summary
	if err := json.Unmarshal(body, &sum); err != nil {
		return fmt.Errorf("summary: %w", err)
	}
	s.mu.Lock()
	if s.sess == sess {
		s.summary = sum.Load
		if sum.Counters != nil {
			s.counters = sum.Counters
		}
	}
	s.mu.Unlock()
	return nil
}

// applyCheckpoint replays one durable-progress frame into the outstanding
// ledger: settled IDs leave the salvageable set, and the settle-derived
// counter snapshot becomes the session's accounting truth.
func (s *remoteShard) applyCheckpoint(sess *wire.Session, body []byte) error {
	var ck wire.Checkpoint
	if err := json.Unmarshal(body, &ck); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sess != sess || ck.Seq <= s.ckptSeq {
		return nil // stale session or duplicate sequence
	}
	s.ckptSeq = ck.Seq
	for _, id := range ck.Settled {
		delete(s.outstanding, task.ID(id))
	}
	if ck.Counters != nil {
		s.ckpt = ck.Counters
	}
	return nil
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
	s.summary.Alive = 0
	s.deaths = append(s.deaths, time.Now())
	rejoins := s.rejoins
	s.mu.Unlock()

	s.f.recoverShard(s)

	s.mu.Lock()
	sealed := s.sealed
	s.mu.Unlock()
	if sealed || !s.rec.Rejoin || rejoins >= s.rec.MaxRejoins {
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
	if s.backoff(s.rec.RedialBackoff).Retry(s.rec.RedialAttempts, s.pause, rejoin) != nil {
		s.shutdown()
	}
}

// shutdown closes the handle permanently: Wait returns the folded books.
func (s *remoteShard) shutdown() {
	s.mu.Lock()
	s.summary.Alive = 0
	s.summary.Sealed = true
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
	s.summary.Sealed = true
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
		case wire.TypeSummary:
			if err := s.applySummary(sess, body); err != nil {
				s.sessionLost(sess, err)
				return
			}
		case wire.TypeCheckpoint:
			if err := s.applyCheckpoint(sess, body); err != nil {
				s.sessionLost(sess, err)
				return
			}
		case wire.TypeLoad:
			// The shard's host loop published a changed load view: decode it
			// in place, so placement reads a view one phase stale.
			s.mu.Lock()
			if s.sess == sess {
				err = wire.DecodeLoad(body, &s.summary)
			}
			s.mu.Unlock()
			if err != nil {
				s.sessionLost(sess, fmt.Errorf("federation: shard %d load: %w", s.id, err))
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
			var res metrics.RunResult
			if err := json.Unmarshal(body, &res); err != nil {
				s.sessionLost(sess, fmt.Errorf("federation: shard %d result: %w", s.id, err))
				return
			}
			s.mu.Lock()
			if s.sess == sess {
				s.res = &res
			}
			s.mu.Unlock()
		case wire.TypeJournal:
			var j wire.JournalExport
			if err := json.Unmarshal(body, &j); err != nil {
				s.sessionLost(sess, fmt.Errorf("federation: shard %d journal: %w", s.id, err))
				return
			}
			// The journal arrives in bounded chunks; every chunk repeats the
			// eviction count. The first chunk is kept as decoded, so a
			// journal that fits one frame is never copied.
			s.mu.Lock()
			if s.journal == nil {
				s.journal = j.Entries
			} else {
				s.journal = append(s.journal, j.Entries...)
			}
			s.evicted = j.Evicted
			s.mu.Unlock()
		case wire.TypeError:
			s.sessionLost(sess, fmt.Errorf("federation: shard %d reported: %s", s.id, body))
			return
		case wire.TypeBye:
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
// ledger before the frame can reach the shard — a checkpoint settling one
// of them arrives strictly after the write, so it never races ahead of its
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
// session contributed: checkpoint-settled tasks (by bucket), residual
// outstanding tasks (charged lost — they provably could not make their
// deadline anywhere), and migrated-away tasks (bounces since the last
// fold). Their sum is exactly the tasks submitted during the session, so
// prevTotalSum stays ledger-exact.
func (s *remoteShard) fold(bouncesNow int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	residual := int64(len(s.outstanding))
	settled := settledFromCounters(s.ckpt)
	for k, v := range s.ckpt {
		s.prev[k] += v
	}
	s.prev[obs.MetricLost] += residual
	bounces := bouncesNow - s.bouncesFolded
	s.bouncesFolded = bouncesNow
	s.prevTotalSum += int(settled + residual + bounces)
	s.admittedPrev += s.counters[obs.MetricAdmitted]
	s.ckpt = nil
	s.counters = nil
	s.outstanding = make(map[task.ID]struct{})
}

// foldStray folds one post-death first placement straight into the closed
// books: no future fold will cover tasks charged after a session's death.
// Caller holds f.mu (the salvage pass that decided the task's fate).
func (s *remoteShard) foldStray(salvaged bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prevTotalSum++
	if salvaged {
		s.bouncesFolded++
	} else {
		s.prev[obs.MetricLost]++
	}
}

// LoadSummary is the shard's load view as of its last Load frame (or JSON
// summary): one host phase stale, like an in-process shard's.
func (s *remoteShard) LoadSummary() livecluster.Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.summary
}

// Counters returns the latest snapshot. The map is replaced wholesale by
// each summary, never mutated in place, so handing it out is safe.
func (s *remoteShard) Counters() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// Placeable reports whether the router may place new work here: a live,
// unsealed session that is neither suspect (frames stale past
// SuspectAfter) nor on post-flap probation. The quarantine counter ticks
// on each live→quarantined edge.
func (s *remoteShard) Placeable() bool {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	up := s.sess != nil && !s.sealed
	suspect := up && s.rec.SuspectAfter > 0 && now.Sub(s.lastHeard) > s.rec.SuspectAfter
	probation := up && now.Before(s.probationUntil)
	placeable := up && !suspect && !probation
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
// fate — checkpointed, salvaged away (excluded via the router's bounce
// ledger) or lost — so the count is submitted minus accepted bounces,
// exact even mid-recovery. With a session up, the folded books (which
// carry dead sessions' residuals under MetricLost) add to the live
// session's counter snapshot.
func (s *remoteShard) SettledTasks() int64 {
	s.mu.Lock()
	down := s.sess == nil && s.res == nil
	prevSettled := settledFromCounters(s.prev)
	counters := s.counters
	s.mu.Unlock()
	if down {
		return s.submitted.Load() - s.f.acceptedBounces(s.id)
	}
	return prevSettled + settledFromCounters(counters)
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
	bounces := int(s.f.acceptedBounces(s.id))
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.res != nil {
		out := *s.res
		out.Total += s.prevTotalSum
		out.Hits += int(s.prev[obs.MetricHits])
		out.Purged += int(s.prev[obs.MetricPurged])
		out.ScheduledMissed += int(s.prev[obs.MetricMissed])
		out.Shed += int(s.prev[obs.MetricShed])
		out.LostToFailure += int(s.prev[obs.MetricLost])
		out.Bounced += int(s.bouncesFolded)
		out.Admitted += int(s.admittedPrev)
		return &out, nil
	}
	total := int(s.submitted.Load())
	merged := make(map[string]int64, len(s.prev)+len(s.ckpt))
	for k, v := range s.prev {
		merged[k] += v
	}
	for k, v := range s.ckpt {
		merged[k] += v
	}
	res := &metrics.RunResult{
		Algorithm:       string(s.f.cfg.Algorithm),
		Workers:         s.f.tp.WorkersPerShard,
		Total:           total,
		Hits:            int(merged[obs.MetricHits]),
		Purged:          int(merged[obs.MetricPurged]),
		ScheduledMissed: int(merged[obs.MetricMissed]),
		Shed:            int(merged[obs.MetricShed]),
		Bounced:         bounces,
		Admitted:        int(s.admittedPrev),
	}
	// The remainder — tasks in no bucket — died with the shard; worker-
	// level lost tasks and salvage residuals land here too, mirroring how
	// a single-session death was synthesized before rejoin existed.
	res.LostToFailure = total - res.Hits - res.Purged - res.ScheduledMissed - res.Shed - res.Bounced
	if res.LostToFailure < 0 {
		// Counter snapshots and the submit count race only while frames
		// are in flight; clamping keeps the synthesized books sane.
		res.LostToFailure = 0
		res.Total = res.Hits + res.Purged + res.ScheduledMissed + res.Shed + res.Bounced
	}
	return res, nil
}

// Journal returns whatever journal the shard shipped at seal time. A
// shard that died mid-run never shipped one: its spans are lost with it,
// which the merged stream reports via the eviction count staying honest
// (nothing is fabricated).
func (s *remoteShard) Journal() ([]obs.Entry, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journal, s.evicted
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
