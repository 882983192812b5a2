// Package wire is the repo's one transport, RTFW: a versioned,
// length-prefixed binary protocol spoken on both tiers — router↔shard
// (scheduler shards as separate processes behind the federation router) and
// host↔worker (livecluster's TCP backend). A session (session.go) starts
// with a fixed preamble (magic + version) so incompatible peers fail fast,
// then a JSON hello, then typed frames:
//
//	[4-byte big-endian payload length][1-byte type][payload]
//
// Task batches, load views, job deliveries and completions — the hot path —
// use fixed-width binary codecs (48 bytes per task, 33 per load view, no
// reflection; the Jobs and Done records sit beside their types in
// livecluster); everything that crosses the wire once per run or per
// heartbeat (hellos, summaries, checkpoints, results, journals) is JSON
// inside its frame.
//
// Versioning rules: the preamble's version byte names the frame grammar.
// A peer MUST reject a version it does not speak — there is no
// negotiation. Adding a frame type or a JSON field is a compatible change
// within a version (unknown JSON fields are ignored; unknown frame types
// are an error, so new frame types require a version bump). Changing the
// task record layout or any existing frame's payload encoding requires a
// version bump.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"time"

	"rtsads/internal/affinity"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// Magic opens every session; Version names the frame grammar.
// Version history: 1 = initial shard protocol; 2 adds the Checkpoint
// frame and the Hello rejoin fields (Rejoin/Epoch/ResumeSeq); 3 adds the
// Load frame and lets a journal span several Journal frames; 4 adds the
// worker tier (a worker's hello, the Jobs and Done frames) and carries the
// whole shard configuration in the shard Hello.
const (
	Magic   = "RTFW"
	Version = 4
)

// Frame types. Submit/Verdict/Seal flow router→shard;
// Reject/Summary/Load/Checkpoint/Result/Journal flow shard→router; Jobs
// flows host→worker and Done worker→host; Heartbeat, Bye and Error may flow
// either way on either tier.
const (
	TypeHello      byte = 1  // dialler→acceptor: JSON hello (shard Hello, or a worker's)
	TypeSubmit     byte = 2  // router→shard: binary task batch
	TypeReject     byte = 3  // shard→router: admission rejected a task
	TypeVerdict    byte = 4  // router→shard: migration verdict for a reject
	TypeSummary    byte = 5  // shard→router: JSON Summary (doubles as heartbeat)
	TypeSeal       byte = 6  // router→shard: close the shard's feed
	TypeResult     byte = 7  // shard→router: JSON final RunResult
	TypeJournal    byte = 8  // shard→router: JSON journal entries, one chunk per frame
	TypeHeartbeat  byte = 9  // either: liveness only
	TypeBye        byte = 10 // either: clean close
	TypeError      byte = 11 // either: fatal error string, then close
	TypeCheckpoint byte = 12 // shard→router: JSON Checkpoint (v2+)
	TypeLoad       byte = 13 // shard→router: binary load view (v3+)
	TypeJobs       byte = 14 // host→worker: binary job records (v4+)
	TypeDone       byte = 15 // worker→host: one binary completion record (v4+)
)

// MaxFrame bounds a frame payload; a peer announcing more is corrupt or
// hostile and the connection is dropped. readChunk is the size of a Conn's
// read and write buffers.
const (
	MaxFrame  = 64 << 20
	readChunk = 64 << 10
)

// TaskRecordSize is the fixed wire width of one task; LoadSize that of one
// load view.
const (
	TaskRecordSize = 48
	LoadSize       = 33
)

// Conn frames one net.Conn. Reads and writes are independently buffered;
// neither direction is safe for concurrent use — a Session serializes
// writes with a mutex and is read from a single goroutine.
type Conn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
	// rhdr/whdr are per-direction scratch for the 5-byte frame header —
	// separate so one reader and one writer goroutine can share the Conn.
	rhdr [5]byte
	whdr [5]byte
	// buf is reusable payload scratch for reads.
	buf []byte
}

// NewConn wraps a connection. It performs no I/O.
func NewConn(c net.Conn) *Conn {
	return &Conn{c: c, br: bufio.NewReaderSize(c, readChunk), bw: bufio.NewWriterSize(c, readChunk)}
}

// SetDeadline bounds the next read and write.
func (c *Conn) SetReadDeadline(t time.Time) error  { return c.c.SetReadDeadline(t) }
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.c.SetWriteDeadline(t) }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// WriteHandshake sends the preamble. The dialling side sends it first;
// the accepting side answers with its own, so both directions verify.
func (c *Conn) WriteHandshake() error {
	if _, err := c.bw.WriteString(Magic); err != nil {
		return err
	}
	if err := c.bw.WriteByte(Version); err != nil {
		return err
	}
	return c.bw.Flush()
}

// ReadHandshake validates the peer's preamble.
func (c *Conn) ReadHandshake() error {
	var pre [len(Magic) + 1]byte
	if _, err := io.ReadFull(c.br, pre[:]); err != nil {
		return fmt.Errorf("wire: read preamble: %w", err)
	}
	if string(pre[:len(Magic)]) != Magic {
		return fmt.Errorf("wire: bad magic %q", pre[:len(Magic)])
	}
	if v := pre[len(Magic)]; v != Version {
		return fmt.Errorf("wire: peer speaks version %d, want %d", v, Version)
	}
	return nil
}

// WriteFrame sends one frame and flushes.
func (c *Conn) WriteFrame(typ byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame payload %d exceeds max %d", len(payload), MaxFrame)
	}
	binary.BigEndian.PutUint32(c.whdr[:4], uint32(len(payload)))
	c.whdr[4] = typ
	if _, err := c.bw.Write(c.whdr[:]); err != nil {
		return err
	}
	if _, err := c.bw.Write(payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// ReadFrame reads one frame. The payload slice is the connection's scratch
// buffer: it is only valid until the next ReadFrame.
func (c *Conn) ReadFrame() (byte, []byte, error) {
	if _, err := io.ReadFull(c.br, c.rhdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(c.rhdr[:4])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame payload %d exceeds max %d", n, MaxFrame)
	}
	// The scratch buffer grows with the payload bytes that arrive, a read
	// buffer at a time, never with the length a header merely claims.
	buf := c.buf[:0]
	for len(buf) < int(n) {
		at := len(buf)
		buf = slices.Grow(buf, min(int(n)-at, readChunk))
		buf = buf[:min(int(n), cap(buf))]
		if _, err := io.ReadFull(c.br, buf[at:]); err != nil {
			return 0, nil, fmt.Errorf("wire: read payload: %w", err)
		}
	}
	c.buf = buf
	return c.rhdr[4], buf, nil
}

// AppendTask appends t's fixed-width record to dst.
func AppendTask(dst []byte, t *task.Task) []byte {
	var rec [TaskRecordSize]byte
	binary.BigEndian.PutUint32(rec[0:4], uint32(t.ID))
	binary.BigEndian.PutUint32(rec[4:8], uint32(t.Payload))
	binary.BigEndian.PutUint64(rec[8:16], uint64(t.Arrival))
	binary.BigEndian.PutUint64(rec[16:24], uint64(t.Proc))
	binary.BigEndian.PutUint64(rec[24:32], uint64(t.Deadline))
	binary.BigEndian.PutUint64(rec[32:40], uint64(t.Affinity))
	binary.BigEndian.PutUint64(rec[40:48], uint64(t.Actual))
	return append(dst, rec[:]...)
}

// DecodeTask fills t from one fixed-width record.
func DecodeTask(rec []byte, t *task.Task) {
	_ = rec[TaskRecordSize-1]
	t.ID = task.ID(binary.BigEndian.Uint32(rec[0:4]))
	t.Payload = int32(binary.BigEndian.Uint32(rec[4:8]))
	t.Arrival = simtime.Instant(binary.BigEndian.Uint64(rec[8:16]))
	t.Proc = time.Duration(binary.BigEndian.Uint64(rec[16:24]))
	t.Deadline = simtime.Instant(binary.BigEndian.Uint64(rec[24:32]))
	t.Affinity = affinity.Set(binary.BigEndian.Uint64(rec[32:40]))
	t.Actual = time.Duration(binary.BigEndian.Uint64(rec[40:48]))
}

// AppendSubmit appends a Submit frame payload (count + records) to dst —
// the router reuses one buffer across batches, so the steady state
// allocates nothing.
func AppendSubmit(dst []byte, ts []*task.Task) []byte {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(ts)))
	dst = append(dst, n[:]...)
	for _, t := range ts {
		dst = AppendTask(dst, t)
	}
	return dst
}

// DecodeSubmit decodes a Submit payload. alloc provides task storage (a
// fresh allocation or an arena slot per task).
func DecodeSubmit(payload []byte, alloc func() *task.Task) ([]*task.Task, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("wire: submit payload too short (%d bytes)", len(payload))
	}
	n := binary.BigEndian.Uint32(payload[:4])
	body := payload[4:]
	// Compared in 64 bits, so a hostile count can neither wrap the product
	// nor size the slice below beyond what the payload really carries.
	if uint64(len(body)) != uint64(n)*TaskRecordSize {
		return nil, fmt.Errorf("wire: submit carries %d bytes for %d tasks (want %d)",
			len(body), n, uint64(n)*TaskRecordSize)
	}
	ts := make([]*task.Task, n)
	for i := range ts {
		t := alloc()
		DecodeTask(body[i*TaskRecordSize:], t)
		ts[i] = t
	}
	return ts, nil
}

// Load is a point-in-time load snapshot of one cluster (livecluster calls it
// Summary), exported so a federation router can place tasks by each shard's
// state: it is the live analogue of the paper's Min_Load term — the
// earliest instant any worker frees up (RQs) plus how much planned work is
// queued ahead of a newcomer.
type Load struct {
	// Workers is the shard's configured worker count; Alive is how many
	// still survive.
	Workers int
	Alive   int
	// Backlog counts tasks admitted but not yet delivered (the ready batch
	// plus submissions not yet absorbed by the host loop).
	Backlog int
	// Inflight counts tasks delivered to workers and not yet completed.
	Inflight int
	// QueuedWork is the planned work queued across alive workers:
	// Σ max(0, freeAt − now). Dividing by Alive estimates the shard's RQs.
	QueuedWork time.Duration
	// MinFree is the earliest virtual instant an alive worker frees up
	// (clamped to now when idle), or simtime.Never when no worker is alive.
	MinFree simtime.Instant
	// Sealed reports that the feed has been closed; the shard accepts no
	// further submissions.
	Sealed bool
}

// EncodeLoad appends s's fixed-width load view to dst: Workers, Alive,
// Backlog and Inflight as int32, QueuedWork and MinFree as int64, Sealed as
// one byte. The shard pushes one per changed host-loop publication into a
// reused buffer, so the steady state allocates nothing.
func EncodeLoad(dst []byte, s Load) []byte {
	var b [LoadSize]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(s.Workers))
	binary.BigEndian.PutUint32(b[4:8], uint32(s.Alive))
	binary.BigEndian.PutUint32(b[8:12], uint32(s.Backlog))
	binary.BigEndian.PutUint32(b[12:16], uint32(s.Inflight))
	binary.BigEndian.PutUint64(b[16:24], uint64(s.QueuedWork))
	binary.BigEndian.PutUint64(b[24:32], uint64(s.MinFree))
	if s.Sealed {
		b[32] = 1
	}
	return append(dst, b[:]...)
}

// DecodeLoad overwrites s with an EncodeLoad payload; s is untouched on
// error.
func DecodeLoad(payload []byte, s *Load) error {
	if len(payload) != LoadSize {
		return fmt.Errorf("wire: load payload is %d bytes, want %d", len(payload), LoadSize)
	}
	s.Workers = int(int32(binary.BigEndian.Uint32(payload[0:4])))
	s.Alive = int(int32(binary.BigEndian.Uint32(payload[4:8])))
	s.Backlog = int(int32(binary.BigEndian.Uint32(payload[8:12])))
	s.Inflight = int(int32(binary.BigEndian.Uint32(payload[12:16])))
	s.QueuedWork = time.Duration(binary.BigEndian.Uint64(payload[16:24]))
	s.MinFree = simtime.Instant(binary.BigEndian.Uint64(payload[24:32]))
	s.Sealed = payload[32] != 0
	return nil
}

// Reject is the shard→router payload for one admission rejection: the
// shard asks the router to migrate the task; the router answers with a
// Verdict for the same ID.
type Reject struct {
	ID     int32  `json:"id"`
	Reason string `json:"reason"`
	// NowNano is the shard's virtual clock at the rejection, so the
	// router's feasibility re-check uses the same instant the shard saw.
	NowNano int64 `json:"now"`
}

// Verdict answers a Reject: Accepted means the router re-placed the task
// on a sibling (the rejecting shard must not shed it).
type Verdict struct {
	ID       int32 `json:"id"`
	Accepted bool  `json:"accepted"`
}

// EncodeReject/DecodeReject and the Verdict pair use a fixed binary
// layout: these frames sit on the scheduling hot path when admission
// control is shedding, so they avoid JSON.
func EncodeReject(dst []byte, r Reject) []byte {
	var b [16]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(r.ID))
	binary.BigEndian.PutUint64(b[4:12], uint64(r.NowNano))
	binary.BigEndian.PutUint32(b[12:16], uint32(len(r.Reason)))
	dst = append(dst, b[:]...)
	return append(dst, r.Reason...)
}

// DecodeReject parses an EncodeReject payload.
func DecodeReject(payload []byte) (Reject, error) {
	if len(payload) < 16 {
		return Reject{}, fmt.Errorf("wire: reject payload too short (%d bytes)", len(payload))
	}
	r := Reject{
		ID:      int32(binary.BigEndian.Uint32(payload[0:4])),
		NowNano: int64(binary.BigEndian.Uint64(payload[4:12])),
	}
	n := int(binary.BigEndian.Uint32(payload[12:16]))
	if len(payload) != 16+n {
		return Reject{}, fmt.Errorf("wire: reject reason length %d does not match payload", n)
	}
	r.Reason = string(payload[16:])
	return r, nil
}

// EncodeVerdict encodes a Verdict payload.
func EncodeVerdict(dst []byte, v Verdict) []byte {
	var b [5]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(v.ID))
	if v.Accepted {
		b[4] = 1
	}
	return append(dst, b[:]...)
}

// DecodeVerdict parses an EncodeVerdict payload.
func DecodeVerdict(payload []byte) (Verdict, error) {
	if len(payload) != 5 {
		return Verdict{}, fmt.Errorf("wire: verdict payload is %d bytes, want 5", len(payload))
	}
	return Verdict{
		ID:       int32(binary.BigEndian.Uint32(payload[0:4])),
		Accepted: payload[4] != 0,
	}, nil
}
