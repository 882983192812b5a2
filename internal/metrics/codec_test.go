package metrics

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"
)

// TestCountsCoverEveryIntField: every int field of RunResult but Workers has
// exactly one position in Counts, and Counts and AddCounts carry each one
// there and back — a count added to RunResult without a position fails here.
func TestCountsCoverEveryIntField(t *testing.T) {
	var r RunResult
	v := reflect.ValueOf(&r).Elem()
	fields := 0
	for i := range v.NumField() {
		if f := v.Type().Field(i); f.Type.Kind() == reflect.Int && f.Name != "Workers" {
			fields++
			v.Field(i).SetInt(int64(1000 + i))
		}
	}
	if fields != int(NumCounts) {
		t.Fatalf("RunResult has %d int counts, Counts has %d positions", fields, NumCounts)
	}
	c := r.Counts()
	for i := range v.NumField() {
		f := v.Type().Field(i)
		if f.Type.Kind() != reflect.Int || f.Name == "Workers" {
			continue
		}
		n := 0
		for _, got := range c {
			if got == int64(1000+i) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("field %s sits at %d positions of Counts, want 1", f.Name, n)
		}
	}
	var back RunResult
	back.AddCounts(c)
	back.Workers = r.Workers
	if !reflect.DeepEqual(back, r) {
		t.Fatalf("AddCounts(Counts()) = %+v, want %+v", back, r)
	}
	back.AddCounts(c)
	for k, n := range back.Counts() {
		if n != 2*c[k] {
			t.Fatalf("position %d after adding twice = %d, want %d", k, n, 2*c[k])
		}
	}
}

// resultCases are the boundary results the codec tests and the fuzz target
// start from.
func resultCases() []*RunResult {
	full := &RunResult{
		Total: 48, Hits: 40, Purged: 3, Shed: 2, ShedQueueFull: 2, Bounced: 3, Admitted: 46, Phases: 17,
		VerticesGenerated: 900, Rerouted: 5, SchedulingTime: 3 * time.Millisecond, Makespan: 123456789,
		WorkerBusy: []time.Duration{0, 7 * time.Millisecond, time.Second},
	}
	for _, d := range []time.Duration{-time.Microsecond, 0, 300 * time.Nanosecond, 5 * time.Microsecond, time.Millisecond, 4 * time.Hour} {
		full.Response.Add(d)
	}
	var most RunResult
	most.AddCounts(maxCounts())
	most.SchedulingTime, most.Makespan = math.MaxInt64, math.MaxInt64
	most.WorkerBusy = []time.Duration{math.MinInt64, math.MaxInt64}
	most.Response.Add(math.MaxInt64)
	return []*RunResult{{}, full, &most}
}

// maxCounts is a vector of every count at its largest.
func maxCounts() Counts {
	var c Counts
	for k := range c {
		c[k] = math.MaxInt64
	}
	return c
}

// TestResultCodecRoundTrip: what a shard ships decodes to identical books —
// counts, durations, WorkerBusy, and the Response histogram's quantiles and
// moments — over a result that keeps its own Algorithm and Workers.
func TestResultCodecRoundTrip(t *testing.T) {
	for _, want := range resultCases() {
		payload := AppendResult(nil, want)
		if n := resultFixed + 8*len(want.WorkerBusy); len(payload) != n {
			t.Fatalf("result payload is %d bytes, want %d", len(payload), n)
		}
		got := &RunResult{Algorithm: "RT-SADS", Workers: 2, Hits: 9, Phases: 9, Makespan: 9, WorkerBusy: []time.Duration{9}}
		got.Response.Add(time.Hour)
		if err := DecodeResult(payload, got); err != nil {
			t.Fatalf("DecodeResult: %v", err)
		}
		if got.Algorithm != "RT-SADS" || got.Workers != 2 {
			t.Fatalf("decoding replaced the receiver's labels: %q, %d workers", got.Algorithm, got.Workers)
		}
		if got.Counts() != want.Counts() || got.SchedulingTime != want.SchedulingTime || got.Makespan != want.Makespan ||
			!slices.Equal(got.WorkerBusy, want.WorkerBusy) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
		g, w := &got.Response, &want.Response
		if g.Count() != w.Count() || g.Mean() != w.Mean() || g.Min() != w.Min() || g.Max() != w.Max() {
			t.Fatalf("response moments: got n=%d mean=%v min=%v max=%v, want n=%d mean=%v min=%v max=%v",
				g.Count(), g.Mean(), g.Min(), g.Max(), w.Count(), w.Mean(), w.Min(), w.Max())
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			if g.Quantile(q) != w.Quantile(q) {
				t.Fatalf("response q%v = %v, want %v", q, g.Quantile(q), w.Quantile(q))
			}
		}
		if again := AppendResult(nil, got); !bytes.Equal(again, payload) {
			t.Fatalf("encode∘decode changed the payload")
		}
	}
}

func TestDecodeResultRejectsMalformed(t *testing.T) {
	payload := AppendResult(nil, resultCases()[1])
	negative := slices.Clone(payload)
	binary.BigEndian.PutUint64(negative[8*int(CountTotal):], 1<<63)
	overflow := slices.Clone(payload)
	for _, i := range []int{0, 1} {
		binary.BigEndian.PutUint64(overflow[8*(int(NumCounts)+i):], math.MaxUint64)
	}
	for _, p := range [][]byte{nil, payload[:resultFixed-8], payload[:len(payload)-1], append(slices.Clone(payload), 0), negative, overflow} {
		keep := *resultCases()[1]
		if err := DecodeResult(p, &keep); err == nil {
			t.Fatalf("DecodeResult accepted a %d-byte payload", len(p))
		}
		if !reflect.DeepEqual(keep, *resultCases()[1]) {
			t.Fatalf("a rejected %d-byte payload modified the result", len(p))
		}
	}
}

// FuzzDecodeResult feeds the Result decoder hostile bytes: no panic, no
// WorkerBusy sized beyond what the payload carries, a rejected payload leaves
// the result as it was, and whatever decodes re-encodes to the payload it came
// from. Under plain `go test` it runs its seed corpus only.
func FuzzDecodeResult(f *testing.F) {
	for _, r := range resultCases() {
		f.Add(AppendResult(nil, r))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, resultFixed)) // negative counts
	f.Fuzz(func(t *testing.T, payload []byte) {
		r := RunResult{Algorithm: "kept", Workers: 3}
		if err := DecodeResult(payload, &r); err != nil {
			if !reflect.DeepEqual(r, RunResult{Algorithm: "kept", Workers: 3}) {
				t.Fatalf("rejected payload modified the result: %+v", r)
			}
			return
		}
		if carried := (len(payload) - resultFixed) / 8; cap(r.WorkerBusy) > carried {
			t.Fatalf("%d-byte payload sized WorkerBusy to %d", len(payload), cap(r.WorkerBusy))
		}
		if c := r.Counts(); slices.Min(c[:]) < 0 {
			t.Fatalf("accepted a negative count: %v", c)
		}
		if again := AppendResult(nil, &r); !bytes.Equal(again, payload) {
			t.Fatalf("encode∘decode changed the payload:\n got %x\nwant %x", again, payload)
		}
	})
}
