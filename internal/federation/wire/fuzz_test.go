package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net"
	"reflect"
	"testing"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/affinity"
	"rtsads/internal/core"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// loadCases are the boundary load views the round-trip test checks and the
// Load fuzz target is seeded with.
var loadCases = []Load{
	{},
	{Workers: 2, Alive: 2, MinFree: 12345},
	{Workers: 4, Alive: 3, Backlog: 17, Inflight: 5, QueuedWork: 3 * time.Millisecond, MinFree: 987654321},
	{Workers: 4, Alive: 0, MinFree: simtime.Never},
	{Workers: 1, Alive: 1, Sealed: true},
	{Workers: math.MaxInt32, Alive: math.MaxInt32, Backlog: math.MaxInt32, Inflight: math.MaxInt32,
		QueuedWork: math.MaxInt64, MinFree: simtime.Never, Sealed: true},
	{Backlog: -1, QueuedWork: -time.Second, MinFree: -1},
}

func TestLoadCodecRoundTrip(t *testing.T) {
	for _, want := range loadCases {
		payload := EncodeLoad(nil, want)
		if len(payload) != LoadSize {
			t.Fatalf("load payload is %d bytes, want %d", len(payload), LoadSize)
		}
		// Decode over a dirty value: every field must be overwritten.
		got := Load{Workers: 9, Alive: 9, Backlog: 9, Inflight: 9, QueuedWork: 9, MinFree: 9, Sealed: !want.Sealed}
		if err := DecodeLoad(payload, &got); err != nil {
			t.Fatalf("DecodeLoad(%+v): %v", want, err)
		}
		if got != want {
			t.Fatalf("load round-trip: got %+v, want %+v", got, want)
		}
	}
}

func TestDecodeLoadRejectsWrongLength(t *testing.T) {
	payload := EncodeLoad(nil, loadCases[2])
	for _, p := range [][]byte{nil, payload[:1], payload[:LoadSize-1], append(payload, 0)} {
		keep := loadCases[1]
		if err := DecodeLoad(p, &keep); err == nil {
			t.Fatalf("DecodeLoad accepted a %d-byte payload", len(p))
		}
		if keep != loadCases[1] {
			t.Fatalf("a rejected %d-byte payload modified the view: %+v", len(p), keep)
		}
	}
}

// TestLoadCodecAllocatesNothing: the shard encodes every changed view into
// one reused buffer and the router decodes it in place, so a Load frame
// must cost no allocation on either side.
func TestLoadCodecAllocatesNothing(t *testing.T) {
	buf := make([]byte, 0, LoadSize)
	in := loadCases[2]
	var out Load
	allocs := testing.AllocsPerRun(200, func() {
		in.Backlog++
		buf = EncodeLoad(buf[:0], in)
		if err := DecodeLoad(buf, &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("load encode+decode allocates %v times per frame, want 0", allocs)
	}
	if out != in {
		t.Fatalf("got %+v, want %+v", out, in)
	}
}

// The fuzz targets feed the binary decoders hostile bytes. Shared
// properties: no panic, no allocation sized by a count the payload merely
// claims, and whatever decodes re-encodes to a payload that decodes to the
// same value. Under plain `go test` they run their seed corpus only.

func FuzzDecodeLoad(f *testing.F) {
	for _, s := range loadCases {
		f.Add(EncodeLoad(nil, s))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, LoadSize))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var s Load
		if err := DecodeLoad(payload, &s); err != nil {
			if s != (Load{}) {
				t.Fatalf("rejected payload modified the view: %+v", s)
			}
			return
		}
		var again Load
		if err := DecodeLoad(EncodeLoad(nil, s), &again); err != nil {
			t.Fatalf("re-encoded view does not decode: %v", err)
		}
		if again != s {
			t.Fatalf("decode∘encode changed the view: %+v → %+v", s, again)
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
		allocated := 0
		ts, err := DecodeSubmit(payload, func() *task.Task {
			allocated++
			return new(task.Task)
		})
		// Task storage is only ever requested for records the payload
		// carries, accepted or not.
		if carried := len(payload) / TaskRecordSize; allocated > carried {
			t.Fatalf("%d-byte payload made the decoder allocate %d tasks", len(payload), allocated)
		}
		if err != nil {
			return
		}
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
	frame(TypeLoad, EncodeLoad(nil, loadCases[2]))
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
		HeartbeatNano: 2e7, TimeoutNano: 15e7, Redials: -1, StragglerGraceNano: 9e7, StragglerStrikes: 4,
		Admission: admission.Config{Policy: admission.Reject, QueueCap: 8}, Backpressure: 16,
		SlackGuardNano: 25000, JournalCap: 4096, Degrade: &core.DegradeConfig{},
		Rejoin: true, Epoch: 3, ResumeSeq: 19,
	})
}

func FuzzSummaryJSON(f *testing.F) {
	fuzzJSON(f, Summary{}, Summary{Load: loadCases[2], Counters: map[string]int64{obs.MetricHits: 40, obs.MetricShed: 2}})
}

func FuzzCheckpointJSON(f *testing.F) {
	fuzzJSON(f, Checkpoint{}, Checkpoint{Seq: 7, Settled: []int32{3, 11, 42}, Counters: map[string]int64{obs.MetricHits: 3}, Sealed: true})
}

func FuzzResultJSON(f *testing.F) {
	fuzzJSON(f, metrics.RunResult{}, metrics.RunResult{Algorithm: "rt-sads/live", Workers: 2, Total: 48, Hits: 40, Purged: 6, Shed: 2})
}

func FuzzJournalJSON(f *testing.F) {
	fuzzJSON(f, JournalExport{}, JournalExport{Evicted: 5, Entries: []obs.Entry{
		{Type: "route", Task: 7, Worker: 1, Virtual: 12345, Detail: "affinity"},
		{Type: "exec", Task: 7, Shard: 1},
	}})
}
