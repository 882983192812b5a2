package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"time"
	"unicode/utf8"

	"rtsads/internal/simtime"
)

// The record is the journal's one storage and wire form, about 25 bytes per
// entry: the ring keeps its entries as records, and RTFW's Journal frame
// carries a block of them as its body. A record is a flags byte (Hit, and
// whether Wall and Deadline are set, so a zero Wall or Deadline round-trips
// as zero and costs nothing); Seq, Wall (Unix nanoseconds, when set) and
// Virtual as zigzag varint deltas from the block's previous record (from zero
// in its first; Wall from the last record that had one); Phase, Task, Worker,
// Shard, Dur and Slack as zigzag varints; Deadline (when set) as a zigzag
// varint offset from Virtual; then Type and Detail, each a uvarint length and
// its bytes. Every value has one spelling — a varint is its shortest, a set
// Deadline is not zero — so whatever decodes re-encodes to the same bytes.
const (
	flagHit      = 1
	flagWall     = 2
	flagDeadline = 4

	// MaxTypeLen and MaxDetailLen bound a record's Type and Detail: the
	// reader refuses longer ones, so a peer can make a reader keep at most
	// MaxRecord bytes per record, and RecordWriter cuts longer ones at a rune
	// boundary so an honest writer never trips the check.
	MaxTypeLen   = 32
	MaxDetailLen = 1024
	// MaxRecord is the longest legal record: the flags byte, ten varints, and
	// Type and Detail with their length prefixes.
	MaxRecord = 1 + 10*binary.MaxVarintLen64 + 1 + MaxTypeLen + 2 + MaxDetailLen
)

// RecordWriter encodes a block of records, carrying the delta bases from
// one record to the next: the previous record's Seq and Virtual and the last
// Wall any record had. The zero value starts a block.
type RecordWriter struct{ seq, wall, virtual int64 }

// Append appends e's record to dst. It allocates nothing when dst has room.
func (w *RecordWriter) Append(dst []byte, e *Entry) []byte {
	var flags byte
	if e.Hit {
		flags |= flagHit
	}
	if !e.Wall.IsZero() {
		flags |= flagWall
	}
	if e.Deadline != 0 {
		flags |= flagDeadline
	}
	dst = binary.AppendVarint(append(dst, flags), e.Seq-w.seq)
	w.seq = e.Seq
	if flags&flagWall != 0 {
		wall := e.Wall.UnixNano()
		dst = binary.AppendVarint(dst, wall-w.wall)
		w.wall = wall
	}
	virtual := int64(e.Virtual)
	dst = binary.AppendVarint(dst, virtual-w.virtual)
	w.virtual = virtual
	for _, v := range [...]int64{int64(e.Phase), int64(e.Task), int64(e.Worker), int64(e.Shard), int64(e.Dur), int64(e.Slack)} {
		dst = binary.AppendVarint(dst, v)
	}
	if flags&flagDeadline != 0 {
		dst = binary.AppendVarint(dst, int64(e.Deadline)-virtual)
	}
	dst = appendString(dst, clip(e.Type, MaxTypeLen))
	return appendString(dst, clip(e.Detail, MaxDetailLen))
}

// appendString appends s as a uvarint length and its bytes.
func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// clip cuts s to at most n bytes, at a rune boundary.
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n]
}

// recordReader walks a block's records, resolving each delta against the
// record before it. The first malformed field sets err and ends the walk.
type recordReader struct {
	b                  []byte
	seq, wall, virtual int64
	err                error
}

// next reads the next record into e, all but its Type and Detail, which it
// returns as views of the block's bytes.
func (r *recordReader) next(e *Entry) (typ, detail []byte) {
	if len(r.b) == 0 {
		r.err = errors.New("truncated")
		return nil, nil
	}
	flags := r.b[0]
	if flags&^(flagHit|flagWall|flagDeadline) != 0 {
		r.err = fmt.Errorf("flags byte is %#x", flags)
		return nil, nil
	}
	r.b = r.b[1:]
	r.seq += r.varint()
	*e = Entry{Seq: r.seq, Hit: flags&flagHit != 0}
	if flags&flagWall != 0 {
		r.wall += r.varint()
		e.Wall = time.Unix(0, r.wall)
	}
	r.virtual += r.varint()
	e.Virtual = simtime.Instant(r.virtual)
	e.Phase, e.Task, e.Worker, e.Shard = int(r.varint()), int(r.varint()), int(r.varint()), int(r.varint())
	e.Dur, e.Slack = time.Duration(r.varint()), time.Duration(r.varint())
	if flags&flagDeadline != 0 {
		if e.Deadline = e.Virtual + simtime.Instant(r.varint()); e.Deadline == 0 && r.err == nil {
			r.err = errors.New("deadline set but zero")
		}
	}
	return r.bytes(MaxTypeLen, "type"), r.bytes(MaxDetailLen, "detail")
}

// uvarint reads one uvarint, which must be the shortest encoding of its
// value: every record has exactly one spelling.
func (r *recordReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	u, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.err = errors.New("truncated")
	case n < 0:
		r.err = errors.New("varint overflows 64 bits")
	case n != (bits.Len64(u|1)+6)/7:
		r.err = fmt.Errorf("%d-byte varint for %d", n, u)
	default:
		r.b = r.b[n:]
	}
	return u
}

// varint reads one zigzag varint (binary.AppendVarint's encoding).
func (r *recordReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// bytes reads a uvarint length of at most limit, then that many bytes.
func (r *recordReader) bytes(limit int, what string) []byte {
	n := r.uvarint()
	switch {
	case r.err != nil:
		return nil
	case n > uint64(limit):
		r.err = fmt.Errorf("%s of %d bytes, limit %d", what, n, limit)
		return nil
	case n > uint64(len(r.b)):
		r.err = fmt.Errorf("truncated (%d of %d %s bytes)", len(r.b), n, what)
		return nil
	}
	b := r.b[:n:n]
	r.b = r.b[n:]
	return b
}

// CheckRecords walks n records at the front of a received chunk of records
// and reports the first malformed one, or bytes left after the last. It
// builds no Type or Detail.
func CheckRecords(recs []byte, n int64) error {
	r := recordReader{b: recs}
	var e Entry
	for i := range n {
		if r.next(&e); r.err != nil {
			return fmt.Errorf("record %d: %w", i, r.err)
		}
	}
	if len(r.b) != 0 {
		return fmt.Errorf("chunk has %d bytes after its %d records", len(r.b), n)
	}
	return nil
}

// AppendEntries decodes every record of a block that RecordWriter wrote or
// CheckRecords accepted, appending them to dst. Type is interned
// (internType); Detail allocates only when non-empty.
func AppendEntries(dst []Entry, recs []byte) []Entry {
	r := recordReader{b: recs}
	for len(r.b) > 0 {
		var e Entry
		typ, detail := r.next(&e)
		if r.err != nil {
			panic("obs: a checked record block failed to decode: " + r.err.Error())
		}
		if e.Type = internType(typ); len(detail) > 0 {
			e.Detail = string(detail)
		}
		dst = append(dst, e)
	}
	return dst
}

// entryTypes holds one copy of every Type the repo records — this package's
// events and the federation router's rejoin — for internType.
var entryTypes = strings.Fields(`run-start run-end arrival admit phase-start phase-end
	deliver exec purge lost reroute route migrate route-reject rejoin shed bounce
	worker-down straggler heartbeat redial`)

// internType returns the entry Type spelled by b: the shared copy of a type
// the repo records, without allocating, or a fresh string for any other.
func internType(b []byte) string {
	for _, t := range entryTypes {
		if string(b) == t {
			return t
		}
	}
	return string(b)
}
