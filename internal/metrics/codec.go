package metrics

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"rtsads/internal/simtime"
)

// resultFixed is the length of a Result payload for no workers.
const resultFixed = 8 * (int(NumCounts) + numBuckets + 5)

// AppendResult appends the binary form a shard ships its final books in, as
// big-endian 64-bit words: the counts by position, the Response buckets, then
// SchedulingTime, Makespan, the Response sum, min and max, and one word per
// worker of WorkerBusy. Algorithm and Workers stay behind: the receiver
// knows them.
func AppendResult(dst []byte, r *RunResult) []byte {
	be, h := binary.BigEndian, &r.Response
	for _, n := range r.Counts() {
		dst = be.AppendUint64(dst, uint64(n))
	}
	for _, n := range h.counts {
		dst = be.AppendUint64(dst, n)
	}
	for _, d := range append([]time.Duration{r.SchedulingTime, time.Duration(r.Makespan), h.sum, h.min, h.max}, r.WorkerBusy...) {
		dst = be.AppendUint64(dst, uint64(d))
	}
	return dst
}

// DecodeResult overwrites r with an AppendResult payload, keeping its
// Algorithm and Workers; r is untouched on error. No count may be
// negative, and the buckets' sum must fit in 64 bits.
func DecodeResult(payload []byte, r *RunResult) error {
	if len(payload) < resultFixed || len(payload)%8 != 0 {
		return fmt.Errorf("metrics: result payload is %d bytes, want %d plus 8 per worker", len(payload), resultFixed)
	}
	word := func(i int) uint64 { return binary.BigEndian.Uint64(payload[8*i:]) }
	var c Counts
	for k := range c {
		if c[k] = int64(word(k)); c[k] < 0 {
			return fmt.Errorf("metrics: result count %d is %d", k, c[k])
		}
	}
	var h Histogram
	for i := range h.counts {
		var carry uint64
		h.counts[i] = word(int(NumCounts) + i)
		if h.total, carry = bits.Add64(h.total, h.counts[i], 0); carry != 0 {
			return errors.New("metrics: result histogram count overflows")
		}
	}
	d := make([]time.Duration, len(payload)/8-int(NumCounts)-numBuckets)
	for i := range d {
		d[i] = time.Duration(word(int(NumCounts) + numBuckets + i))
	}
	h.sum, h.min, h.max = d[2], d[3], d[4]
	*r = RunResult{Algorithm: r.Algorithm, Workers: r.Workers,
		SchedulingTime: d[0], Makespan: simtime.Instant(d[1]), Response: h, WorkerBusy: d[5:]}
	r.AddCounts(c)
	return nil
}
