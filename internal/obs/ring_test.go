package obs_test

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"rtsads/internal/federation/wire"
	"rtsads/internal/obs"
	"rtsads/internal/simtime"
)

// ringEntries draws n entries the way a run records them — wall stamps a
// few microseconds apart (or unset), virtual time moving forward, small
// counters — with negative slack, hits and deadlines (set or not) mixed in.
// One entry in longEvery carries a Detail over 1 KiB of multi-byte runes;
// longEvery 0 draws none.
func ringEntries(r *rand.Rand, n, longEvery int) []obs.Entry {
	types := []string{"arrival", "admit", "deliver", "exec", "purge", "phase-start"}
	wall := time.Unix(1_760_000_000, 0)
	var virtual simtime.Instant
	es := make([]obs.Entry, n)
	for i := range es {
		wall = wall.Add(time.Duration(r.IntN(5000)) * time.Nanosecond)
		virtual += simtime.Instant(r.IntN(2000))
		e := obs.Entry{Type: types[r.IntN(len(types))], Virtual: virtual, Phase: r.IntN(500),
			Task: r.IntN(4000), Worker: r.IntN(9) - 1, Dur: time.Duration(r.IntN(3000)),
			Slack: time.Duration(r.IntN(4000) - 2000), Hit: r.IntN(2) == 0}
		if r.IntN(8) != 0 {
			e.Wall = wall
		}
		if r.IntN(3) == 0 {
			e.Deadline = virtual + simtime.Instant(1+r.IntN(5000))
		}
		if longEvery > 0 && i%longEvery == 0 {
			e.Detail = strings.Repeat("€", 400+r.IntN(100)) // 1 200–1 497 bytes
		}
		es[i] = e
	}
	return es
}

// readBack is what a recorded entry reads back as: stamped with its Seq,
// its Detail cut to obs.MaxDetailLen bytes at a rune boundary.
func readBack(e obs.Entry, seq int64) obs.Entry {
	e.Seq = seq
	if n := obs.MaxDetailLen; len(e.Detail) > n {
		for !utf8.RuneStart(e.Detail[n]) {
			n--
		}
		e.Detail = e.Detail[:n]
	}
	return e
}

// checkExport compares j's export with the tail of what was recorded, field
// by field (Wall by instant), and checks entries[i].Seq == evicted+i+1.
func checkExport(t *testing.T, j *obs.Journal, recorded []obs.Entry) {
	t.Helper()
	got, evicted := j.Export()
	if int(evicted)+len(got) != len(recorded) || len(got) != j.Len() || evicted != j.Evicted() {
		t.Fatalf("export holds %d entries, %d evicted, after %d records (Len %d, Evicted %d)",
			len(got), evicted, len(recorded), j.Len(), j.Evicted())
	}
	for i, e := range got {
		want := readBack(recorded[int(evicted)+i], evicted+int64(i)+1)
		if e.Seq != evicted+int64(i)+1 || !e.Wall.Equal(want.Wall) {
			t.Fatalf("entry %d: seq %d wall %v, want seq %d wall %v", i, e.Seq, e.Wall, want.Seq, want.Wall)
		}
		e.Wall, want.Wall = time.Time{}, time.Time{}
		if e != want {
			t.Fatalf("entry %d: got %+v, want %+v", i, e, want)
		}
	}
}

// TestJournalRingKeepsCap records through several wraps of the ring. While
// records stay within the ring's 32-byte reserve, a full journal shows
// exactly its newest cap entries. A short Detail brings the records close to
// the reserve, where a ring without its spare block would show fewer.
func TestJournalRingKeepsCap(t *testing.T) {
	const cap = 12 * 256 // whole blocks at the reserve, so no rounding adds room
	r := rand.New(rand.NewPCG(1, 2))
	j := obs.NewJournal(cap)
	es := ringEntries(r, 5*cap+77, 0)
	for i := range es {
		es[i].Detail = "pad.."
		j.Record(es[i])
		if i+1 >= cap && j.Len() != cap {
			t.Fatalf("after %d records Len is %d, want %d", i+1, j.Len(), cap)
		}
		if i%977 == 0 {
			checkExport(t, j, es[:i+1])
		}
	}
	checkExport(t, j, es)
	j.Visit(0, func(blocks []obs.Block, n int, _ int64) error {
		size := 0
		for _, b := range blocks {
			size += len(b.Recs)
		}
		if per := float64(size) / float64(n); per < 28 || per > 32 {
			t.Errorf("records average %.1f bytes; the test wants them just under the 32-byte reserve", per)
		}
		return nil
	})
}

// TestJournalRingLongDetails: a Detail over 1 KiB is clipped at a rune
// boundary as it is recorded, and records past the reserve leave the ring
// fewer entries than its cap, every one of the rest counted as evicted.
func TestJournalRingLongDetails(t *testing.T) {
	const cap = 2000
	r := rand.New(rand.NewPCG(3, 4))
	j := obs.NewJournal(cap)
	es := ringEntries(r, 4*cap, 5)
	for i := range es {
		j.Record(es[i])
	}
	checkExport(t, j, es)
	if j.Len() >= cap {
		t.Fatalf("Len %d with records far over the reserve, want under %d", j.Len(), cap)
	}
	for _, e := range j.Snapshot() {
		if len(e.Detail) > obs.MaxDetailLen || !utf8.ValidString(e.Detail) {
			t.Fatalf("a %d-byte Detail survived recording", len(e.Detail))
		}
	}
}

// TestJournalRecordAllocatesNothing: the ring is one slab allocated up front,
// so recording into a full ring — encoding, opening and evicting blocks —
// allocates nothing.
func TestJournalRecordAllocatesNothing(t *testing.T) {
	j := obs.NewJournal(1024)
	e := obs.Entry{Type: "route", Task: 7, Worker: 1, Detail: "policy=affinity-first", Deadline: 900}
	for range 5000 {
		j.Record(e)
	}
	allocs := testing.AllocsPerRun(5000, func() {
		e.Wall = time.Now()
		e.Virtual += 10
		j.Record(e)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v times per entry, want 0", allocs)
	}
}

// TestJournalBlocksAreJournalChunks: every block Visit hands out is exactly
// the body of the Journal chunk wire.AppendJournal writes for its entries,
// so a shard ships blocks as they are. A limit below Len cuts the oldest
// entries, re-encoding the one block it cuts into.
func TestJournalBlocksAreJournalChunks(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	j := obs.NewJournal(4000)
	for _, e := range ringEntries(r, 9000, 97) {
		j.Record(e)
	}
	all, allEvicted := j.Export()
	for _, limit := range []int{0, len(all), len(all) - 1, len(all) - 300, 1} {
		err := j.Visit(limit, func(blocks []obs.Block, n int, evicted int64) error {
			want := len(all)
			if limit > 0 {
				want = min(want, limit)
			}
			if n != want || evicted != allEvicted+int64(len(all)-want) {
				t.Fatalf("limit %d: visited %d entries, %d evicted; want %d, %d", limit, n, evicted, want, allEvicted+int64(len(all)-want))
			}
			var got []obs.Entry
			for i, b := range blocks {
				es := obs.AppendEntries(nil, b.Recs)
				if len(es) != b.N {
					t.Fatalf("limit %d: block %d says %d records, holds %d", limit, i, b.N, len(es))
				}
				chunk := wire.AppendJournal(nil, n, evicted, es)
				if !bytes.Equal(chunk[16:], b.Recs) {
					t.Fatalf("limit %d: block %d is not the chunk body AppendJournal writes for it", limit, i)
				}
				if !bytes.Equal(wire.AppendJournalBlock(nil, n, evicted, b), chunk) {
					t.Fatalf("limit %d: AppendJournalBlock differs from AppendJournal for block %d", limit, i)
				}
				got = append(got, es...)
			}
			if len(got) != n {
				t.Fatalf("limit %d: blocks hold %d entries, Visit says %d", limit, len(got), n)
			}
			for i := range got {
				if got[i].Seq != evicted+int64(i)+1 || got[i].Task != all[len(all)-n+i].Task {
					t.Fatalf("limit %d: entry %d is %+v, want %+v", limit, i, got[i], all[len(all)-n+i])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkJournalRecord is rtbench's obs.journal_record_ns rung: one
// lifecycle entry stamped and recorded into a ring of the default capacity,
// evicting once full, as in a long run.
func BenchmarkJournalRecord(b *testing.B) {
	j := obs.NewJournal(0)
	e := obs.Entry{Type: "deliver", Task: 1, Worker: 1, Phase: 1}
	b.ReportAllocs()
	for range b.N {
		e.Wall = time.Now()
		j.Record(e)
	}
}
