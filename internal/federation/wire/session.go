package wire

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Session is one RTFW connection and the only place its mechanics live:
// the preamble and hello exchange (Dial, Accept), deadline-bounded writes
// serialized by a mutex (Send, SendWith, SendJSON), idle-bounded reads
// (Recv), the heartbeat ticker (Start) and an idempotent Close. All four
// endpoints — router and shard, host and worker — run on it, so every wait
// on either tier is bounded by the same two knobs: the hello timeout until
// Start, the liveness timeout after.
//
// Any goroutine may send; one goroutine reads. A failed write closes the
// connection so the reader notices, and the reader's error then names the
// write that failed.
type Session struct {
	conn *Conn
	// bound limits every single wait, read or write. Start changes it, once,
	// before the session is shared.
	bound time.Duration

	wmu  sync.Mutex
	wbuf []byte                // SendWith's reusable payload
	werr atomic.Pointer[error] // the first failed write

	closed atomic.Bool
	done   chan struct{} // closed by Close: stops the heartbeat ticker
	ticker sync.WaitGroup
}

func newSession(nc net.Conn, timeout time.Duration) *Session {
	return &Session{conn: NewConn(nc), bound: timeout, done: make(chan struct{})}
}

// Dial connects to addr, exchanges preambles and sends hello as the JSON
// Hello frame, each step bounded by timeout.
func Dial(addr string, timeout time.Duration, hello any) (*Session, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	s := newSession(nc, timeout)
	if err := s.preamble(s.conn.WriteHandshake, s.conn.ReadHandshake); err != nil {
		nc.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	if err := s.SendJSON(TypeHello, hello); err != nil {
		nc.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	return s, nil
}

// Accept answers a dialling peer on nc: it validates the peer's preamble,
// replies with its own and returns the session with the peer's hello payload
// (valid until the next Recv), each step bounded by timeout. The caller
// accepted nc and still owns it when Accept fails.
func Accept(nc net.Conn, timeout time.Duration) (*Session, []byte, error) {
	s := newSession(nc, timeout)
	if err := s.preamble(s.conn.ReadHandshake, s.conn.WriteHandshake); err != nil {
		return nil, nil, err
	}
	typ, hello, err := s.Recv()
	if err != nil {
		return nil, nil, fmt.Errorf("wire: read hello: %w", err)
	}
	if typ != TypeHello {
		return nil, nil, fmt.Errorf("wire: expected hello, got frame type %d", typ)
	}
	return s, hello, nil
}

// preamble runs the two handshake halves in the caller's order: the dialler
// writes first, the acceptor reads first, so both directions verify.
func (s *Session) preamble(first, second func() error) error {
	deadline := time.Now().Add(s.bound)
	s.conn.SetReadDeadline(deadline)
	s.conn.SetWriteDeadline(deadline)
	if err := first(); err != nil {
		return err
	}
	return second()
}

// Start ends the hello phase: from here on a read waits at most timeout for
// the peer's next frame and a write at most timeout for the socket to take
// it. With a positive heartbeat a ticker sends a Heartbeat frame that often
// until Close, so the peer's read bound fires only when this side is gone;
// beat, when non-nil, is asked before each one and false skips it. Call
// once, before the session is shared between goroutines.
func (s *Session) Start(heartbeat, timeout time.Duration, beat func() bool) {
	s.bound = timeout
	if heartbeat <= 0 {
		return
	}
	s.ticker.Add(1)
	go func() {
		defer s.ticker.Done()
		t := time.NewTicker(heartbeat)
		defer t.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-t.C:
			}
			if beat != nil && !beat() {
				continue
			}
			if s.Send(TypeHeartbeat, nil) != nil {
				return
			}
		}
	}()
}

// Send writes one frame.
func (s *Session) Send(typ byte, payload []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.send(typ, payload)
}

// SendWith writes one frame whose payload encode appends to the session's
// reusable buffer, under the write lock: a hot-path sender allocates
// nothing in the steady state.
func (s *Session) SendWith(typ byte, encode func(dst []byte) []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.wbuf = encode(s.wbuf[:0])
	return s.send(typ, s.wbuf)
}

// SendJSON writes one frame carrying v as JSON.
func (s *Session) SendJSON(typ byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return s.Send(typ, payload)
}

// send is the one bounded write. Caller holds wmu.
func (s *Session) send(typ byte, payload []byte) error {
	s.conn.SetWriteDeadline(time.Now().Add(s.bound))
	err := s.conn.WriteFrame(typ, payload)
	if err != nil {
		err = fmt.Errorf("wire: send frame type %d: %w", typ, err)
		s.werr.CompareAndSwap(nil, &err)
		s.conn.Close() // a torn stream is useless; the reader notices
	}
	return err
}

// Recv reads the next frame, waiting at most the session's bound for it. The
// payload is only valid until the next Recv.
func (s *Session) Recv() (byte, []byte, error) {
	s.conn.SetReadDeadline(time.Now().Add(s.bound))
	typ, payload, err := s.conn.ReadFrame()
	if err != nil {
		if werr := s.werr.Load(); werr != nil {
			err = *werr
		}
	}
	return typ, payload, err
}

// Close closes the connection and stops the ticker. It reports whether this
// call was the first: a session dies once, and that caller owns reporting it.
func (s *Session) Close() bool {
	if s.closed.Swap(true) {
		return false
	}
	close(s.done)
	s.conn.Close()
	s.ticker.Wait()
	return true
}
