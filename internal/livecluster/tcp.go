package livecluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rtsads/internal/faultinject"
	"rtsads/internal/federation/wire"
	"rtsads/internal/obs"
	"rtsads/internal/rng"
	"rtsads/internal/simtime"
	"rtsads/internal/workload"
)

// workerHello opens a host→worker session (the JSON payload of its Hello
// frame). The worker draws the database, the replica placement and the
// transaction table deterministically from the parameters instead of
// receiving them over the wire — each node loads its own partition, as on a
// real distributed-memory machine. The run's task list stays with the host.
type workerHello struct {
	Params        workload.Params `json:"params"`
	WorkerID      int             `json:"worker"`
	Scale         float64         `json:"scale"`
	StartUnixNano int64           `json:"start_unix_nano"` // the host clock's wall epoch (shared time base)
	// HeartbeatNano and TimeoutNano carry the host's liveness settings so
	// both sides agree: each side sends a heartbeat every HeartbeatNano and
	// treats TimeoutNano of silence as a dead peer. Zero selects defaults.
	HeartbeatNano int64 `json:"heartbeat_nano,omitempty"`
	TimeoutNano   int64 `json:"timeout_nano,omitempty"`
}

// Fixed wire widths of one Job in a Jobs frame and of the record that opens
// a Done frame (the rest of that frame is the Err string).
const (
	jobRecordSize  = 32
	doneRecordSize = 29
)

// appendJobs appends the Jobs frame payload: one fixed-width record per job.
// Ready does not cross the wire — the host's clock reads the send, not the
// arrival, so the worker stamps it (decodeJobs).
func appendJobs(dst []byte, jobs []Job) []byte {
	for i := range jobs {
		j := &jobs[i]
		dst = binary.BigEndian.AppendUint32(dst, uint32(j.Task))
		dst = binary.BigEndian.AppendUint32(dst, uint32(j.Txn))
		dst = binary.BigEndian.AppendUint64(dst, uint64(j.Proc))
		dst = binary.BigEndian.AppendUint64(dst, uint64(j.Comm))
		dst = binary.BigEndian.AppendUint64(dst, uint64(j.Deadline))
	}
	return dst
}

// decodeJobs decodes a Jobs payload; every job enters the ready queue at
// ready.
func decodeJobs(payload []byte, ready simtime.Instant) ([]Job, error) {
	if len(payload)%jobRecordSize != 0 {
		return nil, fmt.Errorf("livecluster: jobs payload of %d bytes is not a whole number of %d-byte records",
			len(payload), jobRecordSize)
	}
	jobs := make([]Job, len(payload)/jobRecordSize)
	for i := range jobs {
		rec := payload[i*jobRecordSize:]
		jobs[i] = Job{
			Task:     int32(binary.BigEndian.Uint32(rec[0:4])),
			Txn:      int32(binary.BigEndian.Uint32(rec[4:8])),
			Proc:     time.Duration(binary.BigEndian.Uint64(rec[8:16])),
			Comm:     time.Duration(binary.BigEndian.Uint64(rec[16:24])),
			Deadline: simtime.Instant(binary.BigEndian.Uint64(rec[24:32])),
			Ready:    ready,
		}
	}
	return jobs, nil
}

// appendDone appends the Done frame payload: a fixed-width record (Worker
// and Matches as int32, Expired as bit 2 of a flags byte), then Err.
func appendDone(dst []byte, d Done) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(d.Task))
	dst = binary.BigEndian.AppendUint32(dst, uint32(d.Worker))
	dst = binary.BigEndian.AppendUint64(dst, uint64(d.Start))
	dst = binary.BigEndian.AppendUint64(dst, uint64(d.Finish))
	dst = binary.BigEndian.AppendUint32(dst, uint32(d.Matches))
	var flags byte
	if d.Expired {
		flags |= 2
	}
	return append(append(dst, flags), d.Err...)
}

// decodeDone decodes a Done payload.
func decodeDone(payload []byte) (Done, error) {
	if len(payload) < doneRecordSize {
		return Done{}, fmt.Errorf("livecluster: done payload too short (%d bytes)", len(payload))
	}
	return Done{
		Task:    int32(binary.BigEndian.Uint32(payload[0:4])),
		Worker:  int(int32(binary.BigEndian.Uint32(payload[4:8]))),
		Start:   simtime.Instant(binary.BigEndian.Uint64(payload[8:16])),
		Finish:  simtime.Instant(binary.BigEndian.Uint64(payload[16:24])),
		Matches: int(int32(binary.BigEndian.Uint32(payload[24:28]))),
		Expired: payload[28]&2 != 0,
		Err:     string(payload[doneRecordSize:]),
	}, nil
}

// ServeOptions tunes ServeWorkerContext.
type ServeOptions struct {
	// HelloTimeout bounds how long an accepted connection may take to send
	// its preamble and hello before the worker gives up on it (default 30s).
	// It also rejects connections that never identify themselves.
	HelloTimeout time.Duration
}

// ServeWorker handles one host session on the listener: it accepts a
// connection, builds the worker from the hello message, executes delivered
// jobs in order, streams completions back, and returns when the host says
// goodbye. It serves exactly one session; callers wanting a long-lived
// worker loop around it.
func ServeWorker(lis net.Listener) error {
	return ServeWorkerContext(context.Background(), lis, ServeOptions{})
}

// ServeWorkerContext is ServeWorker with bounded waits: cancelling ctx
// closes the listener (and any live session connection) so an orphaned
// worker process exits instead of blocking in Accept or a read forever, and
// a connection that never sends its hello is dropped after
// opt.HelloTimeout. Silence from the host longer than the session's
// liveness timeout (agreed in the hello) also ends the session, and every
// write is bounded by it so a stalled host cannot park the session.
func ServeWorkerContext(ctx context.Context, lis net.Listener, opt ServeOptions) error {
	// Cancelling ctx closes the listener, then the session's connection, so
	// neither Accept nor a session read outlives it.
	stopAccept := context.AfterFunc(ctx, func() { lis.Close() })
	defer stopAccept()
	conn, err := lis.Accept()
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("livecluster: accept: %w", err)
	}
	defer conn.Close()
	stopSession := context.AfterFunc(ctx, func() { conn.Close() })
	defer stopSession()

	// A connection that never says hello (or says it malformed) must not
	// park the worker forever.
	sess, body, err := wire.Accept(conn, Liveness{HelloTimeout: opt.HelloTimeout}.WithDefaults().HelloTimeout)
	if err != nil {
		return fmt.Errorf("livecluster: read hello: %w", err)
	}
	defer sess.Close()
	var h workerHello
	if err := json.Unmarshal(body, &h); err != nil {
		return fmt.Errorf("livecluster: decode hello: %w", err)
	}
	live := Liveness{HeartbeatEvery: time.Duration(h.HeartbeatNano), Timeout: time.Duration(h.TimeoutNano)}.WithDefaults()
	// Refuse a hello that names no worker of its own run before drawing
	// anything (GenerateTable validates the parameters first): such a
	// worker would serve with no local replica.
	if h.WorkerID < 0 || h.WorkerID >= h.Params.Workers {
		return fmt.Errorf("livecluster: hello names worker %d, outside [0,%d)", h.WorkerID, h.Params.Workers)
	}
	w, err := workload.GenerateTable(h.Params)
	if err != nil {
		return fmt.Errorf("livecluster: build transaction table: %w", err)
	}
	clock, err := NewClockAt(time.Unix(0, h.StartUnixNano), h.Scale)
	if err != nil {
		return err
	}
	// Heartbeats tell the host this worker is alive even when its queue is
	// busy for a long stretch; they keep flowing through the final drain so
	// the host's read bound does not fire while we finish up.
	sess.Start(live.HeartbeatEvery, live.Timeout, nil)

	worker := NewWorker(h.WorkerID, clock, w)
	jobs := newReadyQueue()
	done := make(chan Done, 1)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		worker.Run(jobs, done)
		close(done)
	}()
	var writeErr error
	go func() {
		defer wg.Done()
		for d := range done {
			err := sess.SendWith(wire.TypeDone, func(dst []byte) []byte { return appendDone(dst, d) })
			if err != nil && writeErr == nil {
				writeErr = err
			}
		}
	}()

	var readErr error
read:
	for {
		// A host silent for longer than the agreed timeout is presumed
		// dead; the session ends so an orphaned worker does not leak.
		typ, body, err := sess.Recv()
		if err != nil {
			if readErr = ctx.Err(); readErr == nil {
				readErr = fmt.Errorf("livecluster: read: %w", err)
			}
			break
		}
		switch typ {
		case wire.TypeJobs:
			batch, err := decodeJobs(body, clock.Now())
			if err != nil {
				readErr = err
				break read
			}
			for _, j := range batch {
				jobs.push(j)
			}
		case wire.TypeHeartbeat:
			// Liveness only; the read bound starting over is the point.
		case wire.TypeBye:
			break read
		default:
			readErr = fmt.Errorf("livecluster: unexpected frame type %d", typ)
			break read
		}
	}
	jobs.close()
	wg.Wait()
	// Acknowledge completion so the host can close cleanly.
	ackErr := sess.Send(wire.TypeBye, nil)
	switch {
	case readErr != nil:
		return readErr
	case writeErr != nil:
		return fmt.Errorf("livecluster: write completion: %w", writeErr)
	case ackErr != nil:
		return fmt.Errorf("livecluster: write bye: %w", ackErr)
	}
	return nil
}

// workerConn is the host's handle on one remote worker: its address and the
// current session, which a successful redial swaps and giving the worker up
// for good clears.
type workerConn struct {
	addr string
	sess atomic.Pointer[wire.Session]
}

// close tears the current session down (the reader notices).
func (wc *workerConn) close() {
	if s := wc.sess.Load(); s != nil {
		s.Close()
	}
}

// TCPOptions configures the TCP backend beyond its worker addresses.
type TCPOptions struct {
	// Liveness tunes heartbeats, timeouts and reconnection; zero values
	// select the defaults.
	Liveness Liveness
	// Inject applies a fault plan to the transport. Optional.
	Inject *faultinject.Injector
	// Obs records transport-level liveness events: heartbeats in both
	// directions and redial outcomes. Optional.
	Obs *obs.Observer
}

// TCPBackend connects the host to one remote worker process per working
// processor, each over one RTFW session (wire.Session) at a time: heartbeats
// in both directions and bounded reads and writes detect a dead worker
// within the liveness timeout instead of blocking the run forever; broken
// sessions are redialled with bounded backoff, and workers that cannot be
// reached again are reported as fatally failed so the cluster re-routes
// their work.
type TCPBackend struct {
	clock    *Clock
	live     Liveness
	inj      *faultinject.Injector
	o        *obs.Observer
	hello    workerHello
	conns    []*workerConn
	done     *completions
	failures chan Failure
	stop     chan struct{}
	closing  atomic.Bool
	wg       sync.WaitGroup

	// sleep pauses for the given duration or until the backend stops,
	// reporting whether it completed. Tests override it with a fake clock
	// to observe redial backoff without real waiting.
	sleep func(d time.Duration) bool
}

// NewTCPBackend dials one address per worker and performs the hello
// handshake. The worker at addrs[i] becomes working processor i.
func NewTCPBackend(clock *Clock, w *workload.Workload, addrs []string, opts TCPOptions) (*TCPBackend, error) {
	if len(addrs) != w.Params.Workers {
		return nil, fmt.Errorf("livecluster: %d worker addresses for %d workers", len(addrs), w.Params.Workers)
	}
	live := opts.Liveness.WithDefaults()
	b := &TCPBackend{
		clock: clock,
		live:  live,
		inj:   opts.Inject,
		o:     opts.Obs,
		hello: workerHello{
			Params:        w.Params,
			Scale:         clock.Scale(),
			StartUnixNano: clock.Start().UnixNano(),
			HeartbeatNano: live.HeartbeatEvery.Nanoseconds(),
			TimeoutNano:   live.Timeout.Nanoseconds(),
		},
		failures: make(chan Failure, 4*len(addrs)+4),
		stop:     make(chan struct{}),
	}
	b.sleep = func(d time.Duration) bool {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
			return true
		case <-b.stop:
			return false
		}
	}
	for i, addr := range addrs {
		wc := &workerConn{addr: addr}
		if err := b.dial(i, wc); err != nil {
			b.abort()
			return nil, err
		}
		b.conns = append(b.conns, wc)
	}
	b.done = newCompletions(len(addrs))
	for i := range b.conns {
		b.wg.Add(1)
		go b.supervise(i)
		if killAt, ok := b.inj.KillAt(i); ok {
			go b.killer(i, killAt)
		}
	}
	return b, nil
}

// dial establishes (or re-establishes) worker i's session. Its heartbeats
// keep the worker's idle detector quiet while the host is alive, except
// while the link is stalled by fault injection (that is the point of a
// stall).
func (b *TCPBackend) dial(i int, wc *workerConn) error {
	hello := b.hello
	hello.WorkerID = i
	s, err := wire.Dial(wc.addr, b.live.Timeout, hello)
	if err != nil {
		return fmt.Errorf("livecluster: worker %d at %s: %w", i, wc.addr, err)
	}
	s.Start(b.live.HeartbeatEvery, b.live.Timeout, func() bool {
		if _, stalled := b.inj.StallUntil(i); stalled {
			return false
		}
		b.o.HeartbeatSent(i)
		return true
	})
	if old := wc.sess.Swap(s); old != nil {
		old.Close()
	}
	return nil
}

// supervise owns worker i's read side: it forwards completions until the
// session ends, and on a broken session redials with backoff. Every broken
// session is reported as a Failure — non-fatal when a fresh session was
// established (the cluster reclaims and re-delivers the worker's jobs),
// fatal when the worker is gone for good.
func (b *TCPBackend) supervise(i int) {
	defer b.wg.Done()
	wc := b.conns[i]
	for {
		err := b.readSession(i)
		if err == nil || b.closing.Load() {
			return // clean bye, or shutdown in progress
		}
		if b.redial(i) {
			b.o.Redial(i, true, b.clock.Now())
			b.failures <- Failure{Worker: i, At: b.clock.Now(), Fatal: false,
				Err: fmt.Sprintf("livecluster: worker %d reconnected after: %v", i, err)}
			continue
		}
		if b.closing.Load() {
			return // shutdown raced the redial; not a worker failure
		}
		b.o.Redial(i, false, b.clock.Now())
		// Given up on for good: Close skips a worker with no session.
		if s := wc.sess.Swap(nil); s != nil {
			s.Close()
		}
		b.failures <- Failure{Worker: i, At: b.clock.Now(), Fatal: true,
			Err: fmt.Sprintf("livecluster: worker %d lost: %v", i, err)}
		return
	}
}

// readSession forwards one session's completions. It returns nil on a clean
// bye and the transport error otherwise. Reads are bounded: a worker silent
// for longer than the liveness timeout (it should heartbeat far more often)
// is treated as dead.
func (b *TCPBackend) readSession(i int) error {
	s := b.conns[i].sess.Load()
	for {
		typ, body, err := s.Recv()
		if err != nil {
			return fmt.Errorf("livecluster: read from worker %d: %w", i, err)
		}
		switch typ {
		case wire.TypeDone:
			d, err := decodeDone(body)
			if err != nil {
				return err
			}
			b.done.in <- d
		case wire.TypeHeartbeat:
			b.o.HeartbeatRecv(i, b.clock.Now())
		case wire.TypeBye:
			return nil
		}
	}
}

// redial tries to re-establish worker i's session, with jittered
// exponential backoff, up to the configured attempt budget. Workers under
// an injected kill are never redialled — the fault plan wants them dead.
func (b *TCPBackend) redial(i int) bool {
	if b.inj.Killed(i) {
		return false
	}
	// Per-worker deterministic jitter: when one network event severs many
	// connections at once, the workers must not all redial on the same
	// doubling schedule and hammer the fabric in lockstep.
	bo := NewBackoff(RedialJitterSeed+uint64(i), b.live.RedialBackoff, 0)
	sleep := func(d time.Duration) bool {
		return b.sleep(d) && !b.closing.Load() && !b.inj.Killed(i)
	}
	return bo.Retry(b.live.Redials, sleep, func() error { return b.dial(i, b.conns[i]) }) == nil
}

// RedialJitterSeed decorrelates redial jitter streams from the workload's
// seed space (an arbitrary odd 64-bit constant). Callers offset it with a
// per-peer index so concurrent redialers draw distinct jitter sequences.
const RedialJitterSeed uint64 = 0x9e3779b97f4a7c15

// Backoff yields capped, jittered exponential redial delays: each Next
// draws from [d/2, d) and doubles d, up to cap (0 = uncapped). The jitter
// stream is deterministic per seed, so when one network event severs many
// connections at once the peers spread over the window instead of
// hammering the fabric in lockstep — and tests can pin the exact delays.
// The worker redial path and the federation's shard dial and rejoin loops
// all run it through Retry.
type Backoff struct {
	src  *rng.Source
	next time.Duration
	cap  time.Duration
}

// NewBackoff builds a backoff schedule starting at base (default 50ms)
// and doubling up to cap per attempt (0 = uncapped).
func NewBackoff(seed uint64, base, cap time.Duration) *Backoff {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if cap > 0 && base > cap {
		base = cap
	}
	return &Backoff{src: rng.New(seed), next: base, cap: cap}
}

// Next returns the delay to sleep before the coming attempt.
func (b *Backoff) Next() time.Duration {
	d := jitterBackoff(b.src, b.next)
	b.next *= 2
	if b.cap > 0 && b.next > b.cap {
		b.next = b.cap
	}
	return d
}

// jitterBackoff draws a delay from [d/2, d): the exponential doubling still
// bounds the total wait, but concurrent redialers spread over the window
// instead of colliding at exactly d.
func jitterBackoff(src *rng.Source, d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(src.Float64()*float64(half))
}

// errNoAttempt is Retry's failure when no attempt was made.
var errNoAttempt = errors.New("livecluster: retry cancelled before its first attempt")

// Retry is the one redial loop: it sleeps out up to attempts backoff delays
// (a negative budget allows none), calling try after each, until try
// succeeds. sleep reports false when the wait was cancelled, which ends the
// loop. Retry returns nil on success and the last failure otherwise.
func (b *Backoff) Retry(attempts int, sleep func(time.Duration) bool, try func() error) error {
	err := errNoAttempt
	for i := 0; i < attempts && sleep(b.Next()); i++ {
		if err = try(); err == nil {
			return nil
		}
	}
	return err
}

// killer enforces an injected worker crash: at the kill time the connection
// is severed, and redial (checked against the injector) is refused, so the
// failure propagates through the same detection path a real crash would.
func (b *TCPBackend) killer(i int, at simtime.Instant) {
	timer := time.NewTimer(b.clock.WallUntil(at))
	defer timer.Stop()
	select {
	case <-timer.C:
		b.conns[i].close()
	case <-b.stop:
	}
}

// Deliver implements Backend. Transport errors are not returned: they sever
// the connection, and the supervisor reports the failure so the cluster
// reclaims the worker's jobs.
func (b *TCPBackend) Deliver(proc int, jobs []Job) error {
	if proc < 0 || proc >= len(b.conns) {
		return fmt.Errorf("livecluster: worker %d out of range", proc)
	}
	if until, ok := b.inj.StallUntil(proc); ok {
		b.clock.SleepUntil(until)
	}
	f := b.inj.OnSend(proc)
	if f.Drop {
		return nil
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if s := b.conns[proc].sess.Load(); s != nil && len(jobs) > 0 {
		s.SendWith(wire.TypeJobs, func(dst []byte) []byte { return appendJobs(dst, jobs) })
	}
	return nil
}

// Done implements Backend.
func (b *TCPBackend) Done() <-chan Done { return b.done.out }

// Failures implements Backend.
func (b *TCPBackend) Failures() <-chan Failure { return b.failures }

// Close implements Backend: say goodbye, wait for the live workers to drain
// and acknowledge, then close the completion stream. Workers already given
// up on are skipped.
func (b *TCPBackend) Close() error {
	b.closing.Store(true)
	close(b.stop)
	var firstErr error
	for i, wc := range b.conns {
		s := wc.sess.Load()
		if s == nil {
			continue
		}
		if err := s.Send(wire.TypeBye, nil); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("livecluster: bye to worker %d: %w", i, err)
		}
	}
	b.wg.Wait()
	b.abort()
	b.done.close()
	return firstErr
}

// abort tears down every session: the partially-dialled set when
// construction fails, all of them at Close.
func (b *TCPBackend) abort() {
	for _, wc := range b.conns {
		wc.close()
	}
}
