// Package wire is the repo's one transport, RTFW: a versioned,
// length-prefixed binary protocol spoken on both tiers — router↔shard
// (scheduler shards as separate processes behind the federation router) and
// host↔worker (livecluster's TCP backend). A session (session.go) starts
// with a fixed preamble (magic + version) so incompatible peers fail fast,
// then a JSON hello, then typed frames:
//
//	[4-byte big-endian payload length][1-byte type][payload]
//
// Task batches, shard progress reports, job deliveries and completions — the
// hot path — and the end-of-session result and journal use binary codecs (48
// bytes per task, 197 plus 4 per settled ID per Progress frame, about 25 per
// journal entry; no reflection; the Result payload is metrics.AppendResult,
// and the Jobs and Done records sit beside their types in livecluster); only
// the hellos, one frame each per session, are JSON inside their frame.
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
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// Magic opens every session; Version names the frame grammar.
// Version history: 1 = initial shard protocol; 2 adds the Checkpoint
// frame and the Hello rejoin fields (Rejoin/Epoch/ResumeSeq); 3 adds the
// Load frame and lets a journal span several Journal frames; 4 adds the
// worker tier (a worker's hello, the Jobs and Done frames) and carries the
// whole shard configuration in the shard Hello; 5 replaces the JSON Summary,
// the JSON Checkpoint and the Load frame with one binary Progress frame; 6
// makes the Journal frame binary; 7 makes its records varint; 8 makes the
// Result frame binary and carries the books' whole vector (metrics.Counts) in
// Progress and Result alike; 9 drops the vector's four overload positions
// (backpressure deferrals and the degraded-mode counts) and the hello's
// backpressure and degrade keys.
const (
	Magic   = "RTFW"
	Version = 9
)

// Frame types. Submit/Verdict/Seal flow router→shard;
// Progress/Reject/Result/Journal flow shard→router; Jobs flows host→worker
// and Done worker→host; Heartbeat, Bye and Error may flow either way on
// either tier. Types 12 and 13 are retired.
const (
	TypeHello     byte = 1  // dialler→acceptor: JSON hello (shard Hello, or a worker's)
	TypeSubmit    byte = 2  // router→shard: binary task batch
	TypeReject    byte = 3  // shard→router: admission rejected a task
	TypeVerdict   byte = 4  // router→shard: migration verdict for a reject
	TypeProgress  byte = 5  // shard→router: binary Progress report (v5+)
	TypeSeal      byte = 6  // router→shard: close the shard's feed
	TypeResult    byte = 7  // shard→router: binary final RunResult (v8+)
	TypeJournal   byte = 8  // shard→router: binary journal chunk (varint records v7+), one per frame
	TypeHeartbeat byte = 9  // either: liveness only
	TypeBye       byte = 10 // either: clean close
	TypeError     byte = 11 // either: fatal error string, then close
	TypeJobs      byte = 14 // host→worker: binary job records (v4+)
	TypeDone      byte = 15 // worker→host: one binary completion record (v4+)
)

// MaxFrame bounds a frame payload; a peer announcing more is corrupt or
// hostile and the connection is dropped. readChunk is the size of a Conn's
// read and write buffers.
const (
	MaxFrame  = 64 << 20
	readChunk = 64 << 10
)

// TaskRecordSize is the fixed wire width of one task; a Progress payload is
// progressFixed bytes plus four per settled ID.
const (
	TaskRecordSize = 48
	loadSize       = 33
	progressFixed  = loadSize + 8 + 8*int(metrics.NumCounts) + 4 // load view, Seq, counts, ID count
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

// DecodeSubmit decodes a Submit payload into a fresh slice. alloc provides
// task storage (a fresh allocation per task, or a slot of a batch the
// reader reuses frame after frame).
func DecodeSubmit(payload []byte, alloc func() *task.Task) ([]*task.Task, error) {
	return AppendDecodeSubmit(nil, payload, alloc)
}

// AppendDecodeSubmit decodes a Submit payload, appending its tasks to dst —
// a reader that hands each batch on before the next frame reuses one slice.
// On error dst comes back as given.
func AppendDecodeSubmit(dst []*task.Task, payload []byte, alloc func() *task.Task) ([]*task.Task, error) {
	if len(payload) < 4 {
		return dst, fmt.Errorf("wire: submit payload too short (%d bytes)", len(payload))
	}
	n := binary.BigEndian.Uint32(payload[:4])
	body := payload[4:]
	// Compared in 64 bits, so a hostile count can neither wrap the product
	// nor size the slice below beyond what the payload really carries.
	if uint64(len(body)) != uint64(n)*TaskRecordSize {
		return dst, fmt.Errorf("wire: submit carries %d bytes for %d tasks (want %d)",
			len(body), n, uint64(n)*TaskRecordSize)
	}
	dst = slices.Grow(dst, int(n))
	for i := range int(n) {
		t := alloc()
		DecodeTask(body[i*TaskRecordSize:], t)
		dst = append(dst, t)
	}
	return dst, nil
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

// Progress is the shard's one report to the router: its load view, the
// frame's sequence number within the session, its cumulative books (every
// count of a RunResult, by position), and the task IDs settled since the
// previous frame. Every frame's terminal counts cover exactly the IDs shipped
// through its Seq, and its shed reasons sum to its Shed — the invariants the
// router's salvage accounting and a dead shard's books lean on.
type Progress struct {
	Load    Load
	Seq     uint64
	Counts  metrics.Counts
	Settled []int32
}

// AppendProgress appends p's encoding to dst: the load view (Workers, Alive,
// Backlog and Inflight as int32, QueuedWork and MinFree as int64, Sealed as
// one byte), Seq, the counts as int64, then the settled IDs as a uint32 count
// and packed int32s. It allocates nothing when dst has room.
func AppendProgress(dst []byte, p *Progress) []byte {
	l, be := &p.Load, binary.BigEndian
	for _, n := range [...]int{l.Workers, l.Alive, l.Backlog, l.Inflight} {
		dst = be.AppendUint32(dst, uint32(n))
	}
	dst = be.AppendUint64(be.AppendUint64(dst, uint64(l.QueuedWork)), uint64(l.MinFree))
	sealed := byte(0)
	if l.Sealed {
		sealed = 1
	}
	dst = be.AppendUint64(append(dst, sealed), p.Seq)
	for _, n := range p.Counts {
		dst = be.AppendUint64(dst, uint64(n))
	}
	dst = be.AppendUint32(dst, uint32(len(p.Settled)))
	for _, id := range p.Settled {
		dst = be.AppendUint32(dst, uint32(id))
	}
	return dst
}

// DecodeProgress overwrites p with an AppendProgress payload, reusing
// p.Settled's storage; p is untouched on error. No count, and none of
// Workers, Alive, Backlog or Inflight, may be negative.
func DecodeProgress(payload []byte, p *Progress) error {
	if len(payload) < progressFixed {
		return fmt.Errorf("wire: progress payload too short (%d bytes)", len(payload))
	}
	be := binary.BigEndian
	n := be.Uint32(payload[progressFixed-4:])
	ids := payload[progressFixed:]
	// Compared in 64 bits, so a hostile count can neither wrap the product
	// nor size the slice below beyond what the payload really carries.
	if uint64(len(ids)) != uint64(n)*4 {
		return fmt.Errorf("wire: progress carries %d ID bytes for %d IDs", len(ids), n)
	}
	if sealed := payload[32]; sealed > 1 {
		return fmt.Errorf("wire: progress sealed byte is %d", sealed)
	}
	i32 := func(at int) int { return int(int32(be.Uint32(payload[at:]))) }
	load := Load{
		Workers: i32(0), Alive: i32(4), Backlog: i32(8), Inflight: i32(12),
		QueuedWork: time.Duration(be.Uint64(payload[16:])),
		MinFree:    simtime.Instant(be.Uint64(payload[24:])),
		Sealed:     payload[32] == 1,
	}
	if min(load.Workers, load.Alive, load.Backlog, load.Inflight) < 0 {
		return fmt.Errorf("wire: progress load view %+v has a negative size", load)
	}
	var counts metrics.Counts
	for k := range counts {
		if counts[k] = int64(be.Uint64(payload[loadSize+8+8*k:])); counts[k] < 0 {
			return fmt.Errorf("wire: progress count %d is %d", k, counts[k])
		}
	}
	p.Load, p.Seq, p.Counts = load, be.Uint64(payload[loadSize:]), counts
	if cap(p.Settled) < int(n) {
		p.Settled = make([]int32, n)
	}
	p.Settled = p.Settled[:n]
	for i := range p.Settled {
		p.Settled[i] = int32(be.Uint32(ids[4*i:]))
	}
	return nil
}

// A Journal frame carries one chunk of a shard's end-of-session journal: a
// journalHeader-byte header (Total as uint32 — the entries retained in the
// whole journal, Evicted as int64, N as uint32 — the records in this chunk)
// then N obs records of about 25 bytes, the first against a fresh delta base
// (obs.RecordWriter documents the record; obs.MaxRecord bounds it).
const journalHeader = 16

// appendJournalHeader appends a chunk's header to dst.
func appendJournalHeader(dst []byte, total int, evicted int64, n int) []byte {
	be := binary.BigEndian
	return be.AppendUint32(be.AppendUint64(be.AppendUint32(dst, uint32(total)), uint64(evicted)), uint32(n))
}

// AppendJournal appends one Journal chunk to dst: the header, then a record
// per entry of runs in order (the chunk's N is their total length). total
// and evicted describe the whole journal and repeat in every chunk. It
// allocates nothing when dst has room. A shard ships its ring's blocks as
// stored (AppendJournalBlock); this encoder is what tests and fuzz targets
// hold those bytes to.
func AppendJournal(dst []byte, total int, evicted int64, runs ...[]obs.Entry) []byte {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	dst = appendJournalHeader(dst, total, evicted, n)
	var w obs.RecordWriter
	for _, r := range runs {
		for i := range r {
			dst = w.Append(dst, &r[i])
		}
	}
	return dst
}

// AppendJournalBlock appends one Journal chunk carrying a journal ring's
// block as it is stored: the same bytes AppendJournal writes for the
// block's entries, copied instead of encoded.
func AppendJournalBlock(dst []byte, total int, evicted int64, b obs.Block) []byte {
	return append(appendJournalHeader(dst, total, evicted, b.N), b.Recs...)
}

// Journal is a shipped journal as the router keeps it: the records of every
// chunk as they crossed the wire, a few bytes per entry, checked on arrival
// and decoded only when Entries asks. The zero value awaits a first chunk.
type Journal struct {
	started bool
	total   int // the whole journal's entries, as the first chunk said
	evicted int64
	n       int      // records kept
	chunks  [][]byte // each non-empty chunk's records, copied out of its frame
}

// Add checks one Journal chunk and keeps its records. The first chunk's
// Total must be at most maxTotal, and every later chunk must repeat the
// first's Total and Evicted. A chunk may carry no more records than are still
// owed, and exactly N whole, minimally spelled records within the Type and
// Detail bounds. A chunk of no records keeps nothing. On error j is
// unchanged.
func (j *Journal) Add(payload []byte, maxTotal int) error {
	if len(payload) < journalHeader {
		return fmt.Errorf("wire: journal payload too short (%d bytes)", len(payload))
	}
	be := binary.BigEndian
	total, ev, n := int64(be.Uint32(payload)), int64(be.Uint64(payload[4:])), int64(be.Uint32(payload[12:]))
	switch {
	case !j.started && total > int64(max(maxTotal, 0)):
		return fmt.Errorf("wire: journal claims %d entries, cap is %d", total, maxTotal)
	case j.started && (total != int64(j.total) || ev != j.evicted):
		return fmt.Errorf("wire: journal chunk says %d entries/%d evicted, first said %d/%d",
			total, ev, j.total, j.evicted)
	case n > total-int64(j.n):
		return fmt.Errorf("wire: journal chunk carries %d entries, %d still owed", n, total-int64(j.n))
	}
	recs := payload[journalHeader:]
	if err := obs.CheckRecords(recs, n); err != nil {
		return fmt.Errorf("wire: journal %w", err)
	}
	j.started, j.total, j.evicted, j.n = true, int(total), ev, j.n+int(n)
	if n > 0 {
		kept := make([]byte, len(recs))
		copy(kept, recs)
		j.chunks = append(j.chunks, kept)
	}
	return nil
}

// Entries decodes every record kept, in order, into one slice of exactly
// their number.
func (j *Journal) Entries() []obs.Entry {
	out := make([]obs.Entry, 0, j.n)
	for _, c := range j.chunks {
		out = obs.AppendEntries(out, c)
	}
	return out
}

// Evicted is the shard's count of entries its ring overwrote before the cut
// it shipped.
func (j *Journal) Evicted() int64 { return j.evicted }

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
