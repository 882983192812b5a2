package wire

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"rtsads/internal/obs"
)

// The record bounds, as obs defines them, and the Deadline-set bit of a
// record's flags byte.
const (
	maxTypeLen   = obs.MaxTypeLen
	maxDetailLen = obs.MaxDetailLen
	maxRecord    = obs.MaxRecord
	flagDeadline = 4
)

// recordedTypes returns every entry Type written as a literal where entries
// are recorded: the observer's events and the federation router's.
func recordedTypes(tb testing.TB) []string {
	tb.Helper()
	var types []string
	lit := regexp.MustCompile(`Type: "([^"]+)"`)
	for _, path := range []string{"../../obs/obs.go", "../router.go"} {
		src, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		for _, m := range lit.FindAllSubmatch(src, -1) {
			if t := string(m[1]); !slices.Contains(types, t) {
				types = append(types, t)
			}
		}
	}
	if len(types) < 20 {
		tb.Fatalf("found only %d entry types: %v", len(types), types)
	}
	return types
}

// journalCases is one entry per recorded type, then the field extremes: a
// non-empty Detail, negative Slack, the host as Worker, a hit, the zero
// Wall, int64 extremes in every field, Wall and Virtual going backwards,
// and a type no one records.
func journalCases(tb testing.TB) []obs.Entry {
	wall := time.Unix(1_760_000_000, 123456789)
	var es []obs.Entry
	for i, typ := range recordedTypes(tb) {
		es = append(es, obs.Entry{Type: typ, Wall: wall.Add(time.Duration(i) * time.Microsecond),
			Virtual: 1000, Phase: i, Task: 7 * i, Worker: i%3 - 1, Dur: time.Duration(i), Shard: i % 2})
	}
	return append(es,
		obs.Entry{Type: "route", Wall: wall, Task: 9, Worker: 1, Detail: "affinity: 2 of 3 replicas"},
		obs.Entry{Type: "exec", Wall: wall, Task: math.MaxInt32, Worker: -1, Hit: true,
			Slack: -3 * time.Millisecond, Dur: math.MaxInt64, Deadline: math.MinInt64, Virtual: math.MaxInt64},
		obs.Entry{Type: "admit", Phase: math.MinInt32, Shard: obs.RouterShard, Slack: time.Second, Deadline: 1 << 40},
		obs.Entry{Type: "lost", Seq: math.MinInt64, Wall: time.Unix(0, math.MinInt64), Virtual: math.MinInt64,
			Phase: math.MaxInt64, Task: math.MinInt64, Worker: math.MinInt64, Shard: math.MaxInt64,
			Dur: math.MinInt64, Slack: math.MaxInt64, Deadline: math.MaxInt64},
		obs.Entry{Type: "exec", Wall: time.Unix(0, math.MaxInt64), Virtual: 5, Deadline: 5, Task: 1},
		obs.Entry{Type: "exec", Wall: wall.Add(-time.Hour), Virtual: -7, Worker: -1, Slack: -1},
		obs.Entry{Type: "mystery", Seq: math.MaxInt64, Detail: "\x00\xff"},
	)
}

// sameEntry compares two entries field by field, Wall by instant.
func sameEntry(a, b obs.Entry) bool {
	if !a.Wall.Equal(b.Wall) {
		return false
	}
	a.Wall, b.Wall = time.Time{}, time.Time{}
	return a == b
}

// TestJournalCodecRoundTrip ships the cases as a journal split into chunks
// of three over the two runs of a wrapped ring, keeps them in one Journal
// and decodes it whole.
func TestJournalCodecRoundTrip(t *testing.T) {
	want := journalCases(t)
	for i := range want {
		want[i].Seq = int64(40 + i)
	}
	want[len(want)-2].Seq = math.MinInt64 // Seq may move backwards too
	const evicted = 39
	older, newer := want[:len(want)/2+1], want[len(want)/2+1:] // the chunk across the seam holds both
	var j Journal
	for sent := 0; sent < len(want); sent += 3 {
		a := older[min(sent, len(older)):min(sent+3, len(older))]
		b := newer[max(sent-len(older), 0):max(min(sent+3-len(older), len(newer)), 0)]
		if err := j.Add(AppendJournal(nil, len(want), evicted, a, b), len(want)); err != nil {
			t.Fatalf("chunk at %d: %v", sent, err)
		}
	}
	got := j.Entries()
	if j.Evicted() != evicted || len(got) != len(want) || cap(got) != len(want) {
		t.Fatalf("decoded %d entries (cap %d), %d evicted; want %d, %d", len(got), cap(got), j.Evicted(), len(want), evicted)
	}
	for i := range want {
		if !sameEntry(got[i], want[i]) {
			t.Fatalf("entry %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestDecodeJournalRejectsMalformed(t *testing.T) {
	es := journalCases(t)[:2]
	whole := AppendJournal(nil, 2, 0, es)
	first := AppendJournal(nil, 3, 4, es[:1])
	// edit re-encodes one record of fields after its flags byte and Seq.
	edit := func(flags byte, rest ...byte) []byte {
		return append(AppendJournal(nil, 1, 0)[:12], append([]byte{0, 0, 0, 1, flags, 2}, rest...)...)
	}
	zeros := []byte{0, 0, 0, 0, 0, 0, 0} // Virtual and the six plain fields
	for _, tc := range []struct {
		name    string
		payload []byte
		later   bool // arrives after first
	}{
		{"short header", whole[:journalHeader-1], false},
		{"total over cap", AppendJournal(nil, 9, 0), false},
		{"more than owed", AppendJournal(nil, 1, 0, es), false},
		{"truncated record", whole[:len(whole)-1], false},
		{"truncated header of a record", whole[:journalHeader], false},
		{"trailing byte", append(slices.Clone(whole), 0), false},
		{"flags byte", func() []byte { p := slices.Clone(whole); p[journalHeader] |= 8; return p }(), false},
		{"non-minimal varint", edit(0, append([]byte{0x80, 0x00}, zeros[1:]...)...), false},
		{"varint overflow", edit(0, append(bytes.Repeat([]byte{0xff}, 10), 0x01)...), false},
		{"deadline set but zero", edit(flagDeadline, append(slices.Clone(zeros), 0, 0, 0)...), false},
		{"type over 32 bytes", edit(0, append(slices.Clone(zeros), append([]byte{33}, bytes.Repeat([]byte{'t'}, 33)...)...)...), false},
		{"detail over 1 KiB", edit(0, append(slices.Clone(zeros), 0, 0x81, 0x08)...), false},
		{"changed total", AppendJournal(nil, 2, 4, es[:1]), true},
		{"changed evicted", AppendJournal(nil, 3, 5, es[:1]), true},
		{"overrun later chunk", AppendJournal(nil, 3, 4, es[:1], es), true},
	} {
		var j Journal
		if tc.later {
			if err := j.Add(first, 8); err != nil {
				t.Fatalf("%s: a well-formed first chunk: %v", tc.name, err)
			}
		}
		before := j
		if err := j.Add(tc.payload, 8); err == nil {
			t.Errorf("%s: accepted %x", tc.name, tc.payload)
		}
		if !reflect.DeepEqual(j, before) {
			t.Errorf("%s: a rejected chunk changed the journal to %+v", tc.name, j)
		}
	}
	// The hand-built records above are rejected for the one field each
	// spoils: the same bytes spelled right are accepted.
	var j Journal
	if err := j.Add(edit(0, append(zeros, 0, 0)...), 8); err != nil {
		t.Fatalf("a well-formed hand-built record: %v", err)
	}
}

// TestJournalKeepsBoundedBytes: however a shard spells its journal, what the
// router keeps is at most JournalCap records of maxRecord bytes. Chunks of
// no records keep nothing, and records at every bound — the longest Type and
// Detail, ten-byte varints — fit maxRecord. An over-long Detail is cut at a
// rune boundary before it ships.
func TestJournalKeepsBoundedBytes(t *testing.T) {
	const jcap = 64
	biggest := obs.Entry{Seq: math.MinInt64, Wall: time.Unix(0, math.MinInt64), Virtual: math.MaxInt64,
		Phase: math.MinInt64, Task: math.MinInt64, Worker: math.MinInt64, Shard: math.MinInt64,
		Dur: math.MinInt64, Slack: math.MinInt64, Deadline: math.MinInt64,
		Type: strings.Repeat("t", 40), Detail: strings.Repeat("€", 400)}
	rec := AppendJournal(nil, 1, 0, []obs.Entry{biggest})[journalHeader:]
	if len(rec) > maxRecord {
		t.Fatalf("a record at every bound is %d bytes, maxRecord %d", len(rec), maxRecord)
	}
	var j Journal
	for range 1000 {
		if err := j.Add(AppendJournal(nil, jcap, 0), jcap); err != nil {
			t.Fatal(err)
		}
	}
	if j.chunks != nil {
		t.Fatalf("empty chunks kept %d slices", len(j.chunks))
	}
	for j.n < jcap {
		var run []obs.Entry
		for range min(1+j.n%5, jcap-j.n) {
			run = append(run, biggest)
		}
		if err := j.Add(AppendJournal(nil, jcap, 0, run), jcap); err != nil {
			t.Fatal(err)
		}
	}
	kept := 0
	for _, c := range j.chunks {
		kept += cap(c)
	}
	if kept > jcap*maxRecord {
		t.Fatalf("kept %d bytes for %d records, bound %d", kept, jcap, jcap*maxRecord)
	}
	if err := j.Add(AppendJournal(nil, jcap, 0, []obs.Entry{biggest}), jcap); err == nil {
		t.Fatal("a chunk past the cap was kept")
	}
	got := j.Entries()[0]
	if !utf8.ValidString(got.Detail) || len(got.Detail) > maxDetailLen || !strings.HasPrefix(biggest.Detail, got.Detail) ||
		len(got.Type) != maxTypeLen {
		t.Fatalf("an over-long Type or Detail shipped as %d-byte %q / %d-byte Detail", len(got.Type), got.Type, len(got.Detail))
	}
}

// TestJournalCodecAllocatesNothing: the shard encodes each chunk into the
// session's reused buffer, the router's check walks it without building an
// entry, and decoding into a sized slice interns Type, so an entry without a
// Detail costs no allocation anywhere — whatever type the repo records.
func TestJournalCodecAllocatesNothing(t *testing.T) {
	buf := make([]byte, 0, 1024)
	in := journalCases(t)[:len(recordedTypes(t))]
	for i := range in {
		in[i].Detail = ""
	}
	journal := make([]obs.Entry, 0, len(in))
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendJournal(buf[:0], len(in), 3, in)
		if err := obs.CheckRecords(buf[journalHeader:], int64(len(in))); err != nil {
			t.Fatal(err)
		}
		journal = obs.AppendEntries(journal[:0], buf[journalHeader:])
	})
	if allocs != 0 {
		t.Fatalf("journal encode+check+decode allocates %v times per chunk, want 0", allocs)
	}
	for i := range in {
		if !sameEntry(journal[i], in[i]) {
			t.Fatalf("entry %d: got %+v, want %+v", i, journal[i], in[i])
		}
	}
}
