package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"rtsads/internal/affinity"
	"rtsads/internal/livecluster"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// loadCases are the boundary load views the round-trip test checks and the
// Load fuzz target is seeded with.
var loadCases = []livecluster.Summary{
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
		got := livecluster.Summary{Workers: 9, Alive: 9, Backlog: 9, Inflight: 9, QueuedWork: 9, MinFree: 9, Sealed: !want.Sealed}
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
	var out livecluster.Summary
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
		var s livecluster.Summary
		if err := DecodeLoad(payload, &s); err != nil {
			if s != (livecluster.Summary{}) {
				t.Fatalf("rejected payload modified the view: %+v", s)
			}
			return
		}
		var again livecluster.Summary
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
