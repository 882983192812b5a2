package wire

import (
	"encoding/json"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"rtsads/internal/affinity"
	"rtsads/internal/rng"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// pipe returns a connected framed pair.
func pipe(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return NewConn(a), NewConn(b)
}

func TestHandshake(t *testing.T) {
	a, b := pipe(t)
	errCh := make(chan error, 1)
	go func() { errCh <- a.WriteHandshake() }()
	if err := b.ReadHandshake(); err != nil {
		t.Fatalf("ReadHandshake: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("WriteHandshake: %v", err)
	}
}

// TestHandshakeRejectsWrongVersion: there is no negotiation — the previous
// grammar (no Load frame, one monolithic Journal frame) is refused as
// firmly as an unknown future one.
func TestHandshakeRejectsWrongVersion(t *testing.T) {
	for _, v := range []byte{Version - 1, 0x7f} {
		a, b := net.Pipe()
		go func() { a.Write(append([]byte(Magic), v)) }()
		err := NewConn(b).ReadHandshake()
		a.Close()
		b.Close()
		if err == nil {
			t.Fatalf("handshake accepted version %d, this side speaks %d", v, Version)
		}
	}
}

func TestHandshakeRejectsBadMagic(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() { a.Write([]byte("HTTP\x01")) }()
	if err := NewConn(b).ReadHandshake(); err == nil {
		t.Fatal("handshake accepted foreign magic")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	a, b := pipe(t)
	payload := []byte("hello, shard")
	// Writes on one Conn must be serialized by the caller; join each write
	// goroutine before issuing the next.
	errCh := make(chan error, 1)
	go func() { errCh <- a.WriteFrame(TypeSeal, payload) }()
	typ, got, err := b.ReadFrame()
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	if typ != TypeSeal || string(got) != string(payload) {
		t.Fatalf("got frame (%d, %q), want (%d, %q)", typ, got, TypeSeal, payload)
	}
	// Empty payloads (heartbeats, seals) must round-trip too.
	go func() { errCh <- a.WriteFrame(TypeHeartbeat, nil) }()
	typ, got, err = b.ReadFrame()
	if err != nil {
		t.Fatalf("ReadFrame empty: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("WriteFrame empty: %v", err)
	}
	if typ != TypeHeartbeat || len(got) != 0 {
		t.Fatalf("got frame (%d, %d bytes), want (%d, 0 bytes)", typ, len(got), TypeHeartbeat)
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		a.Write([]byte{0xff, 0xff, 0xff, 0xff, TypeSubmit})
	}()
	if _, _, err := NewConn(b).ReadFrame(); err == nil {
		t.Fatal("ReadFrame accepted an oversize frame header")
	}
}

func TestTaskCodecRoundTrip(t *testing.T) {
	src := rng.New(7)
	tasks := make([]*task.Task, 64)
	for i := range tasks {
		tasks[i] = &task.Task{
			ID:       task.ID(src.Intn(1 << 20)),
			Arrival:  simtime.Instant(src.Intn(1 << 40)),
			Proc:     time.Duration(src.Intn(1 << 30)),
			Deadline: simtime.Instant(src.Intn(1 << 41)),
			Affinity: affinity.Set(src.Uint64()),
			Actual:   time.Duration(src.Intn(1 << 29)),
			Payload:  int32(src.Intn(1 << 16)),
		}
	}
	// Extremes: zero task, Never deadline, negative payload.
	tasks = append(tasks,
		&task.Task{},
		&task.Task{ID: math.MaxInt32, Deadline: simtime.Never, Affinity: ^affinity.Set(0)},
		&task.Task{ID: 1, Payload: -3},
	)

	payload := AppendSubmit(nil, tasks)
	wantLen := 4 + len(tasks)*TaskRecordSize
	if len(payload) != wantLen {
		t.Fatalf("submit payload is %d bytes, want %d", len(payload), wantLen)
	}
	got, err := DecodeSubmit(payload, func() *task.Task { return new(task.Task) })
	if err != nil {
		t.Fatalf("DecodeSubmit: %v", err)
	}
	if len(got) != len(tasks) {
		t.Fatalf("decoded %d tasks, want %d", len(got), len(tasks))
	}
	for i := range tasks {
		if !reflect.DeepEqual(*got[i], *tasks[i]) {
			t.Fatalf("task %d: got %+v, want %+v", i, *got[i], *tasks[i])
		}
	}
}

func TestDecodeSubmitRejectsTruncated(t *testing.T) {
	payload := AppendSubmit(nil, []*task.Task{{ID: 1}, {ID: 2}})
	for _, cut := range []int{1, 4, 5, len(payload) - 1} {
		if _, err := DecodeSubmit(payload[:cut], func() *task.Task { return new(task.Task) }); err == nil {
			t.Fatalf("DecodeSubmit accepted a %d-byte truncation", cut)
		}
	}
}

func TestRejectVerdictRoundTrip(t *testing.T) {
	r := Reject{ID: 99, Reason: "queue-full", NowNano: 123456789}
	got, err := DecodeReject(EncodeReject(nil, r))
	if err != nil {
		t.Fatalf("DecodeReject: %v", err)
	}
	if got != r {
		t.Fatalf("reject round-trip: got %+v, want %+v", got, r)
	}
	if _, err := DecodeReject([]byte{1, 2, 3}); err == nil {
		t.Fatal("DecodeReject accepted a truncated payload")
	}

	for _, v := range []Verdict{{ID: 7, Accepted: true}, {ID: -1, Accepted: false}} {
		got, err := DecodeVerdict(EncodeVerdict(nil, v))
		if err != nil {
			t.Fatalf("DecodeVerdict: %v", err)
		}
		if got != v {
			t.Fatalf("verdict round-trip: got %+v, want %+v", got, v)
		}
	}
	if _, err := DecodeVerdict([]byte{0}); err == nil {
		t.Fatal("DecodeVerdict accepted a truncated payload")
	}
}

// TestCheckpointRoundTrip sends a Checkpoint frame across a framed pair and
// demands the durable-progress payload — sequence, settled IDs, cumulative
// verdict counters and seal bit — survive the wire exactly.
func TestCheckpointRoundTrip(t *testing.T) {
	a, b := pipe(t)
	want := Checkpoint{
		Seq:     7,
		Settled: []int32{3, 11, 42},
		Counters: map[string]int64{
			"rtsads_tasks_hit_total":  2,
			"rtsads_tasks_lost_total": 1,
		},
		Sealed: true,
	}
	payload, err := json.Marshal(want)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- a.WriteFrame(TypeCheckpoint, payload) }()
	typ, body, err := b.ReadFrame()
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	if typ != TypeCheckpoint {
		t.Fatalf("frame type = %d, want %d", typ, TypeCheckpoint)
	}
	var got Checkpoint
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint round-trip: got %+v, want %+v", got, want)
	}
}

// TestHelloRejoinFieldsRoundTrip checks the v2 rejoin handshake fields ship
// through the Hello JSON, and that a first-contact hello omits them — v1
// shards must never see rejoin keys they would not understand.
func TestHelloRejoinFieldsRoundTrip(t *testing.T) {
	h := Hello{Shards: 2, WorkersPerShard: 2, Shard: 1, Rejoin: true, Epoch: 3, ResumeSeq: 19}
	payload, err := json.Marshal(h)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got Hello
	if err := json.Unmarshal(payload, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !got.Rejoin || got.Epoch != 3 || got.ResumeSeq != 19 {
		t.Fatalf("rejoin fields lost in round-trip: %+v", got)
	}

	first, err := json.Marshal(Hello{Shards: 2, WorkersPerShard: 2})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, key := range []string{"rejoin", "epoch", "resume_seq"} {
		if strings.Contains(string(first), key) {
			t.Errorf("first-contact hello leaks %q: %s", key, first)
		}
	}
}
