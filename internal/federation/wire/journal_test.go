package wire

import (
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"rtsads/internal/obs"
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
// Wall, and a type no one records.
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
// of three over the two runs of a wrapped ring, and decodes them into one
// slice sized by the first chunk.
func TestJournalCodecRoundTrip(t *testing.T) {
	want := journalCases(t)
	for i := range want {
		want[i].Seq = int64(40 + i)
	}
	const evicted = 39
	older, newer := want[:len(want)/2+1], want[len(want)/2+1:] // the chunk across the seam holds both
	var got []obs.Entry
	var ev int64
	for sent := 0; sent < len(want); sent += 3 {
		a := older[min(sent, len(older)):min(sent+3, len(older))]
		b := newer[max(sent-len(older), 0):max(min(sent+3-len(older), len(newer)), 0)]
		var err error
		got, ev, err = DecodeJournal(AppendJournal(nil, len(want), evicted, a, b), got, ev, len(want))
		if err != nil {
			t.Fatalf("chunk at %d: %v", sent, err)
		}
	}
	if ev != evicted || len(got) != len(want) || cap(got) != len(want) {
		t.Fatalf("decoded %d entries (cap %d), %d evicted; want %d, %d", len(got), cap(got), ev, len(want), evicted)
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
	for _, tc := range []struct {
		name    string
		payload []byte
		journal []obs.Entry // nil: the first chunk
		evicted int64
	}{
		{"short header", whole[:journalHeader-1], nil, 0},
		{"total over cap", AppendJournal(nil, 9, 0), nil, 0},
		{"more than owed", AppendJournal(nil, 1, 0, es), nil, 0},
		{"truncated record", whole[:len(whole)-1], nil, 0},
		{"truncated fixed part", whole[:journalHeader+entryFixed-1], nil, 0},
		{"trailing byte", append(slices.Clone(whole), 0), nil, 0},
		{"hit byte", func() []byte { p := slices.Clone(whole); p[journalHeader+44] = 2; return p }(), nil, 0},
		{"changed total", AppendJournal(nil, 2, 4, es[:1]), make([]obs.Entry, 1, 3), 4},
		{"changed evicted", AppendJournal(nil, 3, 5, es[:1]), make([]obs.Entry, 1, 3), 4},
		{"overrun later chunk", AppendJournal(nil, 3, 4, es), make([]obs.Entry, 2, 3), 4},
	} {
		got, ev, err := DecodeJournal(tc.payload, tc.journal, tc.evicted, 8)
		if err == nil {
			t.Errorf("%s: accepted %x", tc.name, tc.payload)
		}
		if len(got) != len(tc.journal) || cap(got) != cap(tc.journal) || ev != tc.evicted {
			t.Errorf("%s: a rejected chunk changed the journal to len %d cap %d evicted %d", tc.name, len(got), cap(got), ev)
		}
	}
	if _, _, err := DecodeJournal(first, nil, 0, 8); err != nil {
		t.Fatalf("a well-formed first chunk: %v", err)
	}
}

// TestJournalCodecAllocatesNothing: the shard encodes each chunk into the
// session's reused buffer and the router decodes it into the slice the first
// chunk sized, interning Type, so an entry without a Detail costs no
// allocation on either side — whatever type the repo records.
func TestJournalCodecAllocatesNothing(t *testing.T) {
	buf := make([]byte, 0, 1024)
	in := journalCases(t)[:len(recordedTypes(t))]
	for i := range in {
		in[i].Detail = ""
	}
	journal := make([]obs.Entry, 0, len(in))
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendJournal(buf[:0], len(in), 3, in)
		var err error
		if journal, _, err = DecodeJournal(buf, journal[:0], 3, len(in)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("journal encode+decode allocates %v times per chunk, want 0", allocs)
	}
	for i := range in {
		if !sameEntry(journal[i], in[i]) {
			t.Fatalf("entry %d: got %+v, want %+v", i, journal[i], in[i])
		}
	}
}
