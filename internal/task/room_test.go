package task

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"rtsads/internal/simtime"
)

// edgeInstants and edgeDurations are the values where the §4.3 arithmetic
// saturates or wraps: the int64 extremes, Never and its neighbour, zero and
// its neighbours, and the search's saturated load.
var (
	edgeInstants = []simtime.Instant{
		math.MinInt64, math.MinInt64 + 1, -simtime.Instant(time.Millisecond), -1, 0, 1,
		simtime.Instant(time.Millisecond), simtime.Instant(3 * time.Millisecond),
		simtime.Instant(1) << 56, simtime.Never - 1, simtime.Never,
	}
	edgeDurations = []time.Duration{
		math.MinInt64, math.MinInt64 + 1, -time.Millisecond, -1, 0, 1, time.Microsecond,
		25 * time.Microsecond, time.Millisecond, time.Duration(1) << 56, time.Duration(1) << 62,
		math.MaxInt64 - 1, math.MaxInt64,
	}
)

// Property: Room is Fits solved for se — Fits(s, se, m, d) holds exactly
// when 0 <= se <= Room(s, m, d) — over every combination of edge values,
// at the room's own boundary, and over random values.
func TestRoomMatchesFits(t *testing.T) {
	check := func(s simtime.Instant, m time.Duration, d simtime.Instant, se time.Duration) {
		t.Helper()
		room := Room(s, m, d)
		if got, want := InRoom(se, room), Fits(s, se, m, d); got != want {
			t.Fatalf("start %d margin %d deadline %d se %d: InRoom(se, %d) = %v, Fits = %v",
				s, m, d, se, room, got, want)
		}
	}
	for _, s := range edgeInstants {
		for _, m := range edgeDurations {
			for _, d := range edgeInstants {
				room := Room(s, m, d)
				for _, se := range edgeDurations {
					check(s, m, d, se)
				}
				// The boundary, wrapping where the room is an extreme.
				check(s, m, d, room-1)
				check(s, m, d, room)
				check(s, m, d, room+1)
			}
		}
	}
	r := rand.New(rand.NewPCG(7, 8))
	draw := func() int64 {
		switch r.IntN(4) {
		case 0:
			return int64(r.Uint64()) // anywhere, wraps included
		case 1:
			return int64(edgeDurations[r.IntN(len(edgeDurations))]) + r.Int64N(5) - 2
		default:
			return r.Int64N(int64(time.Second)) // where real phases live
		}
	}
	for i := 0; i < 200_000; i++ {
		s, m, d := simtime.Instant(draw()), time.Duration(draw()), simtime.Instant(draw())
		if r.IntN(8) == 0 {
			d = simtime.Never
		}
		room := Room(s, m, d)
		check(s, m, d, time.Duration(draw()))
		check(s, m, d, room+time.Duration(r.Int64N(3)-1))
	}
}

// Property: the purge's one comparison against a task's latest start
// agrees with Missed, and for a task it keeps, the latest start it returns
// (the horizon's input) is LatestStart — for Never and MinInt64 deadlines,
// now at Never, negative and MaxInt64 Proc, and differences d - p that wrap.
func TestPurgeTestMatchesMissed(t *testing.T) {
	check := func(now simtime.Instant, tk *Task) {
		t.Helper()
		ls, missed := tk.purgeTest(now)
		if missed != tk.Missed(now) || !missed && ls != tk.LatestStart() {
			t.Fatalf("now %d, p %d, d %d: purgeTest = (%d, %v), want (%d, %v)",
				now, tk.Proc, tk.Deadline, ls, missed, tk.LatestStart(), tk.Missed(now))
		}
	}
	for _, now := range edgeInstants {
		for _, p := range edgeDurations {
			for _, d := range edgeInstants {
				tk := &Task{Proc: p, Deadline: d}
				check(now, tk)
				// Around the latest start, where the comparison flips.
				if ls := tk.LatestStart(); ls != simtime.Never {
					check(ls-1, tk)
					check(ls, tk)
					check(ls+1, tk)
				}
			}
		}
	}
	r := rand.New(rand.NewPCG(9, 10))
	for i := 0; i < 200_000; i++ {
		tk := &Task{Proc: time.Duration(r.Uint64()), Deadline: simtime.Instant(r.Uint64())}
		if i%2 == 0 {
			tk.Proc = time.Duration(r.Int64N(int64(time.Millisecond)))
		}
		check(simtime.Instant(r.Uint64()), tk)
		check(tk.Deadline-simtime.Instant(tk.Proc), tk)
	}
}
