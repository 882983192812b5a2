package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net"
	"reflect"
	"slices"
	"testing"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/affinity"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// progressCases are the boundary Progress frames the round-trip test checks
// and the Progress fuzz target is seeded with: every load view extreme, Seq
// and counts at both ends of their ranges, and settled-ID lists from none to
// many.
var progressCases = []Progress{
	{},
	{Load: Load{Workers: 2, Alive: 2, MinFree: 12345}, Seq: 1},
	{Load: Load{Workers: 4, Alive: 3, Backlog: 17, Inflight: 5, QueuedWork: 3 * time.Millisecond, MinFree: 987654321},
		Seq: 7, Counts: metrics.Counts{metrics.CountHits: 2, metrics.CountLost: 1, metrics.CountTotal: 4, metrics.CountAdmitted: 5, metrics.CountBounced: 1},
		Settled: []int32{3, 11, 42}},
	{Load: Load{Workers: 4, Alive: 0, MinFree: simtime.Never}, Seq: 2,
		Counts: metrics.Counts{metrics.CountShed: 9, metrics.CountShedQueueFull: 7, metrics.CountShedHopeless: 2, metrics.CountPhases: 3}},
	{Load: Load{Workers: 1, Alive: 1, Sealed: true}, Seq: 3, Settled: []int32{0}},
	{Load: Load{Workers: math.MaxInt32, Alive: math.MaxInt32, Backlog: math.MaxInt32, Inflight: math.MaxInt32,
		QueuedWork: math.MaxInt64, MinFree: simtime.Never, Sealed: true},
		Seq: math.MaxUint64, Counts: maxCounts(), Settled: []int32{math.MaxInt32, math.MinInt32, -1}},
	{Load: Load{QueuedWork: -time.Second, MinFree: -1}},
}

// maxCounts is a vector of every count at its largest.
func maxCounts() metrics.Counts {
	var c metrics.Counts
	for k := range c {
		c[k] = math.MaxInt64
	}
	return c
}

// sameProgress compares two frames, a nil and an empty ID list alike.
func sameProgress(a, b *Progress) bool {
	return a.Load == b.Load && a.Seq == b.Seq && a.Counts == b.Counts && slices.Equal(a.Settled, b.Settled)
}

func TestProgressCodecRoundTrip(t *testing.T) {
	for _, want := range progressCases {
		payload := AppendProgress(nil, &want)
		if n := progressFixed + 4*len(want.Settled); len(payload) != n {
			t.Fatalf("progress payload is %d bytes, want %d", len(payload), n)
		}
		// Decode over a dirty value: every field must be overwritten.
		got := Progress{
			Load: Load{Workers: 9, Alive: 9, Backlog: 9, Inflight: 9, QueuedWork: 9, MinFree: 9, Sealed: !want.Load.Sealed},
			Seq:  want.Seq + 1, Counts: metrics.Counts{9, 9, 9, 9, 9, 9, 9}, Settled: []int32{9, 9, 9, 9, 9},
		}
		if err := DecodeProgress(payload, &got); err != nil {
			t.Fatalf("DecodeProgress(%+v): %v", want, err)
		}
		if !sameProgress(&got, &want) {
			t.Fatalf("progress round-trip: got %+v, want %+v", got, want)
		}
	}
}

// TestLoadCodecRoundTrip: the load view is the first loadSize bytes of every
// Progress payload, laid out the same whatever follows it, and each boundary
// view round-trips through them on its own.
func TestLoadCodecRoundTrip(t *testing.T) {
	for _, c := range progressCases {
		bare := AppendProgress(nil, &Progress{Load: c.Load})
		full := AppendProgress(nil, &c)
		if !bytes.Equal(bare[:loadSize], full[:loadSize]) {
			t.Fatalf("load view %+v encodes as %x alone, %x beside Seq/counts/IDs", c.Load, bare[:loadSize], full[:loadSize])
		}
		// Decode over a dirty view: every field must be overwritten.
		got := Progress{Load: Load{Workers: 9, Alive: 9, Backlog: 9, Inflight: 9, QueuedWork: 9, MinFree: 9, Sealed: !c.Load.Sealed}}
		if err := DecodeProgress(bare, &got); err != nil {
			t.Fatalf("DecodeProgress(%+v): %v", c.Load, err)
		}
		if got.Load != c.Load {
			t.Fatalf("load round-trip: got %+v, want %+v", got.Load, c.Load)
		}
	}
}

func TestDecodeProgressRejectsMalformed(t *testing.T) {
	payload := AppendProgress(nil, &progressCases[2])
	hostile := slices.Clone(payload)
	binary.BigEndian.PutUint32(hostile[progressFixed-4:], math.MaxUint32) // four billion IDs, three carried
	sealed := slices.Clone(payload)
	sealed[32] = 2 // would re-encode as 1
	malformed := [][]byte{nil, payload[:1], payload[:progressFixed-1], payload[:len(payload)-1], append(slices.Clone(payload), 0), hostile, sealed}
	// A hostile shard's negative count would enter the router's books, and a
	// negative load field the view placement divides by.
	for i := range 4 {
		negative := slices.Clone(payload)
		binary.BigEndian.PutUint32(negative[4*i:], math.MaxUint32)
		malformed = append(malformed, negative)
	}
	for _, k := range []metrics.Count{metrics.CountMissed, metrics.CountShedInfeasible, metrics.CountTotal, metrics.NumCounts - 1} {
		negative := slices.Clone(payload)
		binary.BigEndian.PutUint64(negative[loadSize+8+8*int(k):], uint64(1)<<63)
		malformed = append(malformed, negative)
	}
	for _, p := range malformed {
		keep := progressCases[4]
		if err := DecodeProgress(p, &keep); err == nil {
			t.Fatalf("DecodeProgress accepted a %d-byte payload %x", len(p), p)
		}
		if !sameProgress(&keep, &progressCases[4]) {
			t.Fatalf("a rejected %d-byte payload modified the frame: %+v", len(p), keep)
		}
	}
}

// TestProgressCodecAllocatesNothing: the shard encodes every frame into the
// session's reused buffer and the router decodes each into one reused value,
// so a Progress frame costs no allocation on either side.
func TestProgressCodecAllocatesNothing(t *testing.T) {
	buf := make([]byte, 0, 256)
	in := progressCases[2]
	var out Progress
	allocs := testing.AllocsPerRun(200, func() {
		in.Seq++
		in.Load.Backlog++
		buf = AppendProgress(buf[:0], &in)
		if err := DecodeProgress(buf, &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("progress encode+decode allocates %v times per frame, want 0", allocs)
	}
	if !sameProgress(&out, &in) {
		t.Fatalf("got %+v, want %+v", out, in)
	}
}

// The fuzz targets feed the binary decoders hostile bytes. Shared
// properties: no panic, no allocation sized by a count the payload merely
// claims, and whatever decodes re-encodes to the payload it came from.
// Under plain `go test` they run their seed corpus only.

func FuzzDecodeProgress(f *testing.F) {
	for i := range progressCases {
		f.Add(AppendProgress(nil, &progressCases[i]))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, progressFixed)) // four billion IDs claimed, none carried
	f.Fuzz(func(t *testing.T, payload []byte) {
		var p Progress
		if err := DecodeProgress(payload, &p); err != nil {
			if !sameProgress(&p, &Progress{}) {
				t.Fatalf("rejected payload modified the frame: %+v", p)
			}
			return
		}
		if carried := (len(payload) - progressFixed) / 4; cap(p.Settled) > carried {
			t.Fatalf("%d-byte payload sized the ID list to %d", len(payload), cap(p.Settled))
		}
		if l := p.Load; min(l.Workers, l.Alive, l.Backlog, l.Inflight, int(slices.Min(p.Counts[:]))) < 0 {
			t.Fatalf("accepted a negative count or load field: %+v", p)
		}
		if again := AppendProgress(nil, &p); !bytes.Equal(again, payload) {
			t.Fatalf("encode∘decode changed the payload:\n got %x\nwant %x", again, payload)
		}
	})
}

func FuzzDecodeSubmit(f *testing.F) {
	f.Add(AppendSubmit(nil, nil))
	f.Add(AppendSubmit(nil, []*task.Task{{}}))
	f.Add(AppendSubmit(nil, []*task.Task{
		{ID: math.MaxInt32, Deadline: simtime.Never, Affinity: ^affinity.Set(0)},
		{ID: 1, Payload: -3, Arrival: 5, Proc: 7, Actual: 6},
	}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                  // four billion tasks, no records
	f.Add(append([]byte{0, 0, 0, 2}, make([]byte, 48)...)) // two claimed, one carried
	f.Fuzz(func(t *testing.T, payload []byte) {
		// Decode behind a kept prefix, as the shard's read loop reuses its
		// slice: the prefix must survive, accepted or not.
		prefix := &task.Task{ID: 7}
		allocated := 0
		out, err := AppendDecodeSubmit([]*task.Task{prefix}, payload, func() *task.Task {
			allocated++
			return new(task.Task)
		})
		// Task storage is only ever requested for records the payload
		// carries, accepted or not.
		if carried := len(payload) / TaskRecordSize; allocated > carried {
			t.Fatalf("%d-byte payload made the decoder allocate %d tasks", len(payload), allocated)
		}
		if len(out) == 0 || out[0] != prefix {
			t.Fatalf("decoding lost the caller's prefix")
		}
		if err != nil {
			if len(out) != 1 {
				t.Fatalf("a refused payload left %d tasks behind the prefix", len(out)-1)
			}
			return
		}
		ts := out[1:]
		if len(ts) != allocated || 4+len(ts)*TaskRecordSize != len(payload) {
			t.Fatalf("decoded %d tasks (%d allocated) from %d bytes", len(ts), allocated, len(payload))
		}
		if again := AppendSubmit(nil, ts); !bytes.Equal(again, payload) {
			t.Fatalf("encode∘decode changed the payload:\n got %x\nwant %x", again, payload)
		}
	})
}

func FuzzDecodeReject(f *testing.F) {
	f.Add(EncodeReject(nil, Reject{}))
	f.Add(EncodeReject(nil, Reject{ID: 99, Reason: "queue-full", NowNano: 123456789}))
	f.Add(EncodeReject(nil, Reject{ID: -1, NowNano: math.MinInt64, Reason: "\x00\xff"}))
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}) // 4 GiB reason claimed
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := DecodeReject(payload)
		if err != nil {
			return
		}
		if len(r.Reason) != len(payload)-16 {
			t.Fatalf("reason is %d bytes from a %d-byte payload", len(r.Reason), len(payload))
		}
		if again := EncodeReject(nil, r); !bytes.Equal(again, payload) {
			t.Fatalf("encode∘decode changed the payload:\n got %x\nwant %x", again, payload)
		}
	})
}

func FuzzDecodeVerdict(f *testing.F) {
	f.Add(EncodeVerdict(nil, Verdict{ID: 7, Accepted: true}))
	f.Add(EncodeVerdict(nil, Verdict{ID: -1}))
	f.Add([]byte{0})
	f.Add([]byte{0, 0, 0, 1, 0x80})
	f.Fuzz(func(t *testing.T, payload []byte) {
		v, err := DecodeVerdict(payload)
		if err != nil {
			return
		}
		// Any non-zero byte reads as accepted, so compare values, not bytes.
		again, err := DecodeVerdict(EncodeVerdict(nil, v))
		if err != nil || !reflect.DeepEqual(again, v) {
			t.Fatalf("decode∘encode changed the verdict: %+v → %+v (%v)", v, again, err)
		}
	})
}

// byteConn is a net.Conn whose peer already sent everything it ever will.
type byteConn struct {
	io.Reader
	net.Conn // nil: only Read is ever called
}

func (c byteConn) Read(p []byte) (int, error) { return c.Reader.Read(p) }

// sessionBytes is a short well-formed stream: a preamble-less run of frames
// of every payload shape the protocol has.
func sessionBytes() []byte {
	var stream bytes.Buffer
	frame := func(typ byte, payload []byte) {
		stream.Write(binary.BigEndian.AppendUint32(nil, uint32(len(payload))))
		stream.WriteByte(typ)
		stream.Write(payload)
	}
	frame(TypeHello, []byte(`{"shards":2,"workers_per_shard":2,"shard":1}`))
	frame(TypeSubmit, AppendSubmit(nil, []*task.Task{{ID: 1, Proc: 7}, {ID: 2, Deadline: simtime.Never}}))
	frame(TypeHeartbeat, nil)
	frame(TypeProgress, AppendProgress(nil, &progressCases[2]))
	frame(TypeJournal, AppendJournal(nil, 1, 0, []obs.Entry{{Seq: 1, Type: "exec", Task: 2, Hit: true}}))
	frame(TypeBye, nil)
	return stream.Bytes()
}

// FuzzReadFrame feeds the framer a hostile stream. It must never panic,
// must hand back exactly the frames the stream carries whole, and must not
// size its buffer by a header's claim: four bytes announcing a 64 MiB
// payload cost what arrives, not what is announced.
func FuzzReadFrame(f *testing.F) {
	whole := sessionBytes()
	f.Add(whole)
	f.Add(whole[:len(whole)-3])                       // torn mid-frame
	f.Add([]byte{0x03, 0xff, 0xff, 0xff, TypeSubmit}) // just under MaxFrame, no payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, TypeSubmit}) // over MaxFrame
	f.Add([]byte{0, 0, 0})                            // torn mid-header
	f.Fuzz(func(t *testing.T, stream []byte) {
		c := NewConn(byteConn{Reader: bytes.NewReader(stream)})
		rest := stream
		for {
			typ, payload, err := c.ReadFrame()
			if err != nil {
				break
			}
			n := int(binary.BigEndian.Uint32(rest[:4]))
			if typ != rest[4] || !bytes.Equal(payload, rest[5:5+n]) {
				t.Fatalf("frame (%d, %x) does not match the stream at %x", typ, payload, rest[:5+n])
			}
			rest = rest[5+n:]
		}
		if whole := len(rest) >= 5 && int(binary.BigEndian.Uint32(rest[:4])) <= len(rest)-5; whole {
			t.Fatalf("ReadFrame refused a whole frame: %x", rest)
		}
		if limit := 2*len(stream) + readChunk; cap(c.buf) > limit {
			t.Fatalf("a %d-byte stream grew the read buffer to %d bytes", len(stream), cap(c.buf))
		}
	})
}

// fuzzJSON is the shared body of the JSON frame targets: whatever payload
// decodes into a T must re-encode, and that encoding must be a fixed point
// of decode∘encode — the two ends of a session agree on what was said.
func fuzzJSON[T any](f *testing.F, seeds ...T) {
	for _, s := range seeds {
		payload, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte(`{not json`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var v T
		if json.Unmarshal(payload, &v) != nil {
			return
		}
		once, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("decoded %+v does not re-encode: %v", v, err)
		}
		var w T
		if err := json.Unmarshal(once, &w); err != nil {
			t.Fatalf("re-encoded payload %s does not decode: %v", once, err)
		}
		if twice, _ := json.Marshal(w); !bytes.Equal(once, twice) {
			t.Fatalf("decode∘encode is not a fixed point:\n once %s\ntwice %s", once, twice)
		}
	})
}

func FuzzHelloJSON(f *testing.F) {
	fuzzJSON(f, Hello{}, Hello{
		Params: workload.DefaultParams(4), Shards: 2, WorkersPerShard: 2, Shard: 1,
		Algorithm: "rt-sads", Scale: 50, StartUnixNano: 1 << 60,
		HeartbeatNano: 2e7, TimeoutNano: 15e7, StragglerGraceNano: 9e7, StragglerStrikes: 4,
		Admission:      admission.Config{Policy: admission.Reject, QueueCap: 8},
		SlackGuardNano: 25000, JournalCap: 4096,
		Rejoin: true, Epoch: 3, ResumeSeq: 19,
	})
}

// FuzzDecodeJournal checks a first Journal chunk against a small cap: what it
// keeps never claims more entries than the cap whatever the header says, a
// rejected chunk leaves the journal empty, and whatever it accepts decodes
// and re-encodes to the payload it came from.
func FuzzDecodeJournal(f *testing.F) {
	const maxTotal = 1024
	for _, e := range journalCases(f) {
		e.Seq = 5
		f.Add(AppendJournal(nil, 2, 4, []obs.Entry{e}))
	}
	f.Add(AppendJournal(nil, 0, 0))
	f.Add(AppendJournal(nil, math.MaxUint32, 0)) // four billion entries claimed, none carried
	f.Add(bytes.Repeat([]byte{0xff}, journalHeader+maxRecord))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var j Journal
		if err := j.Add(payload, maxTotal); err != nil {
			if !reflect.DeepEqual(j, Journal{}) {
				t.Fatalf("rejected payload changed the journal: %+v", j)
			}
			return
		}
		if j.total > maxTotal {
			t.Fatalf("%d-byte payload claims %d entries past the cap", len(payload), j.total)
		}
		if again := AppendJournal(nil, j.total, j.Evicted(), j.Entries()); !bytes.Equal(again, payload) {
			t.Fatalf("encode∘decode changed the payload:\n got %x\nwant %x", again, payload)
		}
	})
}
