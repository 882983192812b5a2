package livecluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"encoding/gob"

	"rtsads/internal/faultinject"
	"rtsads/internal/obs"
	"rtsads/internal/rng"
	"rtsads/internal/simtime"
	"rtsads/internal/workload"
)

// envelope is the single wire message type exchanged between the host and
// TCP workers, gob-encoded. Exactly one field is set per message.
type envelope struct {
	Hello     *helloMsg
	Deliver   *deliverMsg
	Done      *Done
	Heartbeat bool
	Bye       bool
}

// helloMsg opens a host→worker session. The worker regenerates the
// workload deterministically from the parameters instead of shipping the
// database over the wire — each node loads its own partition, as on a real
// distributed-memory machine.
type helloMsg struct {
	Params        workload.Params
	WorkerID      int
	Scale         float64
	StartUnixNano int64 // the host clock's wall epoch (shared time base)
	// HeartbeatNano and TimeoutNano carry the host's liveness settings so
	// both sides agree: each side sends a heartbeat every HeartbeatNano and
	// treats TimeoutNano of silence as a dead peer. Zero selects defaults.
	HeartbeatNano int64
	TimeoutNano   int64
}

// deliverMsg appends jobs to the worker's ready queue.
type deliverMsg struct {
	Jobs []Job
}

// ServeOptions tunes ServeWorkerContext.
type ServeOptions struct {
	// HelloTimeout bounds how long an accepted connection may take to send
	// its hello before the worker gives up on it (default 30s). It also
	// rejects connections that never identify themselves.
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
// worker process exits instead of blocking in Accept or Decode forever, and
// a connection that never sends its hello is dropped after
// opt.HelloTimeout. Silence from the host longer than the session's
// liveness timeout (agreed in the hello) also ends the session.
func ServeWorkerContext(ctx context.Context, lis net.Listener, opt ServeOptions) error {
	helloTimeout := opt.HelloTimeout
	if helloTimeout <= 0 {
		helloTimeout = 30 * time.Second
	}

	// The watcher makes Accept and the session reads interruptible: on ctx
	// cancellation it closes the listener and the session's connection.
	var connMu sync.Mutex
	var liveConn net.Conn
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			lis.Close()
			connMu.Lock()
			if liveConn != nil {
				liveConn.Close()
			}
			connMu.Unlock()
		case <-watchDone:
		}
	}()

	conn, err := lis.Accept()
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("livecluster: accept: %w", err)
	}
	connMu.Lock()
	liveConn = conn
	connMu.Unlock()
	defer conn.Close()
	if ctx.Err() != nil {
		return ctx.Err()
	}

	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	var encMu sync.Mutex

	// A connection that never says hello (or says it malformed) must not
	// park the worker forever.
	conn.SetReadDeadline(time.Now().Add(helloTimeout))
	var hello envelope
	if err := dec.Decode(&hello); err != nil {
		return fmt.Errorf("livecluster: read hello: %w", err)
	}
	if hello.Hello == nil {
		return errors.New("livecluster: first message was not a hello")
	}
	h := hello.Hello
	heartbeat := time.Duration(h.HeartbeatNano)
	if heartbeat <= 0 {
		heartbeat = 100 * time.Millisecond
	}
	idle := time.Duration(h.TimeoutNano)
	if idle <= 0 {
		idle = 5 * heartbeat
	}
	w, err := workload.Generate(h.Params)
	if err != nil {
		return fmt.Errorf("livecluster: regenerate workload: %w", err)
	}
	clock, err := NewClockAt(time.Unix(0, h.StartUnixNano), h.Scale)
	if err != nil {
		return err
	}

	// Every write is bounded so a stalled host cannot park the session.
	send := func(e envelope) error {
		encMu.Lock()
		defer encMu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(idle))
		return enc.Encode(e)
	}

	worker := NewWorker(h.WorkerID, clock, w)
	jobs := make(chan Job, len(w.Tasks))
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
			d := d
			if err := send(envelope{Done: &d}); err != nil && writeErr == nil {
				writeErr = err
			}
		}
	}()

	// Heartbeats tell the host this worker is alive even when its queue is
	// busy for a long stretch; they keep flowing through the final drain so
	// the host's read deadline does not fire while we finish up.
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		ticker := time.NewTicker(heartbeat)
		defer ticker.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-ticker.C:
				if err := send(envelope{Heartbeat: true}); err != nil {
					return
				}
			}
		}
	}()

	var readErr error
	for {
		// A host silent for longer than the agreed timeout is presumed
		// dead; the session ends so an orphaned worker does not leak.
		conn.SetReadDeadline(time.Now().Add(idle))
		var msg envelope
		if err := dec.Decode(&msg); err != nil {
			if ctx.Err() != nil {
				readErr = ctx.Err()
			} else {
				readErr = fmt.Errorf("livecluster: read: %w", err)
			}
			break
		}
		switch {
		case msg.Deliver != nil:
			// The wire does not carry a usable stamp (the host's clock reads
			// the send, not the arrival): the jobs enter the ready queue now.
			ready := clock.Now()
			for _, j := range msg.Deliver.Jobs {
				j.Ready = ready
				jobs <- j
			}
		case msg.Heartbeat:
			// Liveness only; the deadline reset above is the point.
		case msg.Bye:
			readErr = nil
			goto drain
		default:
			readErr = errors.New("livecluster: unexpected message")
			goto drain
		}
	}
drain:
	close(jobs)
	wg.Wait()
	// Acknowledge completion so the host can close cleanly.
	ackErr := send(envelope{Bye: true})
	close(hbStop)
	hbWG.Wait()
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

// errConnDown marks sends attempted while a worker's connection is being
// re-established or is gone for good.
var errConnDown = errors.New("livecluster: connection down")

// workerConn is the host's handle on one remote worker. The connection
// behind it can be swapped by a successful redial.
type workerConn struct {
	addr string

	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
	dead bool // set when the worker is given up on for good
}

// send encodes one envelope with a bounded write. On error the connection
// is closed so the reader notices and the supervisor takes over.
func (wc *workerConn) send(e envelope, timeout time.Duration) error {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if wc.conn == nil {
		return errConnDown
	}
	wc.conn.SetWriteDeadline(time.Now().Add(timeout))
	if err := wc.enc.Encode(e); err != nil {
		wc.conn.Close()
		return err
	}
	return nil
}

// session snapshots the current connection and starts a fresh gob stream
// reader for it.
func (wc *workerConn) session() (net.Conn, *gob.Decoder) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if wc.conn == nil {
		return nil, nil
	}
	return wc.conn, gob.NewDecoder(wc.conn)
}

// swap installs a freshly-dialled connection (with its encoder) in place of
// the old one.
func (wc *workerConn) swap(conn net.Conn, enc *gob.Encoder) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if wc.conn != nil {
		wc.conn.Close()
	}
	wc.conn = conn
	wc.enc = enc
}

// closeConn tears the current connection down (the reader notices).
func (wc *workerConn) closeConn() {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if wc.conn != nil {
		wc.conn.Close()
	}
}

// markDead closes the connection and refuses future sends.
func (wc *workerConn) markDead() {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if wc.conn != nil {
		wc.conn.Close()
		wc.conn = nil
	}
	wc.dead = true
}

func (wc *workerConn) isDead() bool {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.dead
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
	// QueueCap bounds each worker's outstanding (delivered-but-unfinished)
	// jobs; beyond it Deliver returns *Overloaded so the host backs off
	// instead of buffering unboundedly. Zero disables backpressure.
	QueueCap int
}

// TCPBackend connects the host to one remote worker process per working
// processor. Each connection carries heartbeats in both directions and
// enforces read/write deadlines, so a dead worker is detected within the
// liveness timeout instead of blocking the run forever; broken connections
// are redialled with bounded backoff, and workers that cannot be reached
// again are reported as fatally failed so the cluster re-routes their work.
type TCPBackend struct {
	clock    *Clock
	live     Liveness
	inj      *faultinject.Injector
	o        *obs.Observer
	hello    helloMsg
	conns    []*workerConn
	done     chan Done
	failures chan Failure
	stop     chan struct{}
	closing  atomic.Bool
	wg       sync.WaitGroup
	tracker  *loadTracker

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
	live := opts.Liveness.withDefaults()
	b := &TCPBackend{
		clock: clock,
		live:  live,
		inj:   opts.Inject,
		o:     opts.Obs,
		hello: helloMsg{
			Params:        w.Params,
			Scale:         clock.Scale(),
			StartUnixNano: clock.Start().UnixNano(),
			HeartbeatNano: live.HeartbeatEvery.Nanoseconds(),
			TimeoutNano:   live.Timeout.Nanoseconds(),
		},
		done:     make(chan Done, len(addrs)),
		failures: make(chan Failure, 4*len(addrs)+4),
		stop:     make(chan struct{}),
		tracker:  newLoadTracker(len(addrs), opts.QueueCap, live.StragglerGrace),
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
	for i := range b.conns {
		b.wg.Add(1)
		go b.supervise(i)
		go b.heartbeats(i)
		if killAt, ok := b.inj.KillAt(i); ok {
			go b.killer(i, killAt)
		}
	}
	return b, nil
}

// dial establishes (or re-establishes) worker i's connection and performs
// the hello handshake.
func (b *TCPBackend) dial(i int, wc *workerConn) error {
	conn, err := net.DialTimeout("tcp", wc.addr, b.live.Timeout)
	if err != nil {
		return fmt.Errorf("livecluster: dial worker %d at %s: %w", i, wc.addr, err)
	}
	enc := gob.NewEncoder(conn)
	hello := b.hello
	hello.WorkerID = i
	conn.SetWriteDeadline(time.Now().Add(b.live.Timeout))
	if err := enc.Encode(envelope{Hello: &hello}); err != nil {
		conn.Close()
		return fmt.Errorf("livecluster: hello to worker %d: %w", i, err)
	}
	wc.swap(conn, enc)
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
			// The fresh session starts with an empty worker queue.
			b.tracker.reset(i)
			b.o.Redial(i, true, b.clock.Now())
			b.failures <- Failure{Worker: i, At: b.clock.Now(), Fatal: false,
				Err: fmt.Sprintf("livecluster: worker %d reconnected after: %v", i, err)}
			continue
		}
		if b.closing.Load() {
			return // shutdown raced the redial; not a worker failure
		}
		b.o.Redial(i, false, b.clock.Now())
		wc.markDead()
		b.tracker.reset(i)
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
	conn, dec := b.conns[i].session()
	if conn == nil {
		return errConnDown
	}
	for {
		conn.SetReadDeadline(time.Now().Add(b.live.Timeout))
		var msg envelope
		if err := dec.Decode(&msg); err != nil {
			return fmt.Errorf("livecluster: read from worker %d: %w", i, err)
		}
		switch {
		case msg.Done != nil:
			b.tracker.complete(msg.Done.Task)
			b.done <- *msg.Done
		case msg.Heartbeat:
			b.o.HeartbeatRecv(i, b.clock.Now())
		case msg.Bye:
			return nil
		}
	}
}

// redial tries to re-establish worker i's session, with jittered
// exponential backoff, up to the configured attempt budget. Workers under
// an injected kill are never redialled — the fault plan wants them dead.
func (b *TCPBackend) redial(i int) bool {
	if b.live.Redials < 0 || b.inj.Killed(i) {
		return false
	}
	// Per-worker deterministic jitter: when one network event severs many
	// connections at once, the workers must not all redial on the same
	// doubling schedule and hammer the fabric in lockstep.
	bo := NewBackoff(RedialJitterSeed+uint64(i), b.live.RedialBackoff, 0)
	for attempt := 0; attempt < b.live.Redials; attempt++ {
		if !b.sleep(bo.Next()) {
			return false
		}
		if b.closing.Load() || b.inj.Killed(i) {
			return false
		}
		if err := b.dial(i, b.conns[i]); err == nil {
			return true
		}
	}
	return false
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
// Both the worker redial path and the federation's shard dial/rejoin
// loops share this schedule.
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

// heartbeats keeps worker i's connection warm so its idle-timeout detector
// only fires when the host is really gone. Suppressed while the link is
// stalled by fault injection (that is the point of a stall).
func (b *TCPBackend) heartbeats(i int) {
	ticker := time.NewTicker(b.live.HeartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-ticker.C:
			if _, stalled := b.inj.StallUntil(i); stalled {
				continue
			}
			// Send errors close the conn; the supervisor handles recovery.
			if b.conns[i].send(envelope{Heartbeat: true}, b.live.Timeout) == nil {
				b.o.HeartbeatSent(i)
			}
		}
	}
}

// killer enforces an injected worker crash: at the kill time the connection
// is severed, and redial (checked against the injector) is refused, so the
// failure propagates through the same detection path a real crash would.
func (b *TCPBackend) killer(i int, at simtime.Instant) {
	timer := time.NewTimer(b.clock.WallUntil(at))
	defer timer.Stop()
	select {
	case <-timer.C:
		b.conns[i].closeConn()
	case <-b.stop:
	}
}

// Deliver implements Backend. Transport errors are not returned: they sever
// the connection, and the supervisor reports the failure so the cluster
// reclaims the worker's jobs. With backpressure enabled, jobs beyond the
// worker's queue cap are refused with *Overloaded (the accepted prefix was
// sent).
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
	var over *Overloaded
	if b.tracker != nil {
		room := b.tracker.room(proc, b.clock.Now())
		if room < 0 {
			room = 0
		}
		overflowed := room < len(jobs)
		if overflowed {
			jobs = jobs[:room]
		}
		for _, j := range jobs {
			b.tracker.add(proc, j)
		}
		if overflowed {
			// The retry hint is computed after registering the accepted
			// prefix so it reflects the queue the host would actually retry
			// against.
			over = &Overloaded{Worker: proc, Accepted: room, RetryAfter: b.tracker.retryAfter(proc)}
		}
	}
	if len(jobs) > 0 {
		b.conns[proc].send(envelope{Deliver: &deliverMsg{Jobs: jobs}}, b.live.Timeout)
	}
	if over != nil {
		return over
	}
	return nil
}

// Done implements Backend.
func (b *TCPBackend) Done() <-chan Done { return b.done }

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
		if wc.isDead() {
			continue
		}
		if err := wc.send(envelope{Bye: true}, b.live.Timeout); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("livecluster: bye to worker %d: %w", i, err)
		}
	}
	b.wg.Wait()
	for _, wc := range b.conns {
		wc.closeConn()
	}
	close(b.done)
	return firstErr
}

// abort tears down partially-dialled connections during construction.
func (b *TCPBackend) abort() {
	for _, wc := range b.conns {
		wc.closeConn()
	}
}
