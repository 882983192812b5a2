package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"rtsads/internal/simtime"
)

// Entry is one structured journal record: what happened, to which task or
// worker, and when — in both wall-clock and virtual time. Fields that do
// not apply carry their zero value and are omitted from the JSONL export.
type Entry struct {
	Seq     int64           `json:"seq"`
	Wall    time.Time       `json:"wall"`
	Virtual simtime.Instant `json:"virtual"`
	Type    string          `json:"type"`
	Phase   int             `json:"phase,omitempty"`
	Task    int             `json:"task,omitempty"`
	Worker  int             `json:"worker"` // -1 = the host
	Dur     time.Duration   `json:"dur,omitempty"`
	Hit     bool            `json:"hit,omitempty"`
	Detail  string          `json:"detail,omitempty"`
	// Shard tags the scheduler domain an entry came from in
	// federation-merged exports (RouterShard = the router itself);
	// single-cluster journals leave it zero.
	Shard int `json:"shard,omitempty"`
	// Slack is the task's remaining deadline slack at the entry's instant:
	// admit records d_l − t_c at admission, exec records deadline − finish
	// (negative on a scheduled miss).
	Slack time.Duration `json:"slack,omitempty"`
	// Deadline is the task's absolute deadline (arrival and admit entries),
	// so lifecycle assembly can decompose slack without the workload file.
	Deadline simtime.Instant `json:"deadline,omitempty"`
}

// RouterShard is the Entry.Shard value tagging router-side entries (route,
// migrate, route-reject) in federation-merged journals, distinguishing them
// from shard 0's own entries.
const RouterShard = -1

// DefaultJournalCap bounds the journal when no capacity is given: enough
// for every event of a sizeable run. At recordReserve bytes per entry and one
// spare block, its ring is one 2.1 MB slab.
const DefaultJournalCap = 65536

// MaxJournalCap bounds a journal capacity that arrives as input — a wire
// hello carries the router's JournalCap, and the serving process allocates
// the ring for it up front. Its ring is a 134 MB slab, sixty-four times the
// default's.
const MaxJournalCap = 1 << 22

// A block is blockBytes of the slab: 256 records at the ring's reserve of
// recordReserve bytes per entry of capacity (a shard's records average about
// 26 B, a router's route record with its policy Detail about 45).
const (
	recordReserve = 32
	blockBytes    = 256 * recordReserve
)

// Block is a run of consecutive journal records as the ring stores them, the
// first against a fresh delta base: Recs is exactly the body of one RTFW
// Journal frame, and N is how many records it holds.
type Block struct {
	Recs []byte
	N    int
}

// Journal is a bounded, concurrency-safe ring of Entries recording a live
// run's lifecycle, stored as records (RecordWriter) in the blocks of one slab
// allocated up front, so recording allocates nothing. When every block is in
// use it evicts the oldest whole; a spare block lets it show the newest cap
// entries while records average at most recordReserve bytes, and fewer when
// long Details overrun that. Exports count what is not shown as evicted, so
// truncation is reported rather than hidden. A nil Journal discards records.
type Journal struct {
	mu      sync.Mutex
	blocks  []Block // a ring of fixed windows into the slab
	head    int     // the oldest block in use
	used    int     // blocks in use, at least one
	w       RecordWriter
	scratch []byte // one record's room: the slab's tail
	cap     int
	n       int // records stored, a few hidden past cap
	seq     int64
}

// NewJournal returns a journal showing at most cap entries (cap <= 0 selects
// DefaultJournalCap).
func NewJournal(cap int) *Journal {
	if cap <= 0 {
		cap = DefaultJournalCap
	}
	nb := (cap*recordReserve+blockBytes-1)/blockBytes + 1
	slab := make([]byte, nb*blockBytes+MaxRecord)
	j := &Journal{blocks: make([]Block, nb), used: 1, cap: cap, scratch: slab[nb*blockBytes:]}
	for i := range j.blocks {
		j.blocks[i].Recs = slab[i*blockBytes : i*blockBytes : (i+1)*blockBytes]
	}
	return j
}

// Record appends an entry, stamping its sequence number. Safe for
// concurrent use.
func (j *Journal) Record(e Entry) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	b := &j.blocks[(j.head+j.used-1)%len(j.blocks)]
	// Near the block's end the record is encoded once aside to see it fit.
	if free := cap(b.Recs) - len(b.Recs); free < MaxRecord {
		if w := j.w; len(w.Append(j.scratch[:0], &e)) > free {
			b = j.open()
		}
	}
	b.Recs = j.w.Append(b.Recs, &e)
	b.N++
	j.n++
	j.mu.Unlock()
}

// open starts the next block against a fresh delta base, evicting the
// oldest block when every one is in use.
func (j *Journal) open() *Block {
	if j.used == len(j.blocks) {
		j.n -= j.blocks[j.head].N
		j.head = (j.head + 1) % len(j.blocks)
		j.used--
	}
	j.used++
	b := &j.blocks[(j.head+j.used-1)%len(j.blocks)]
	b.Recs, b.N, j.w = b.Recs[:0], 0, RecordWriter{}
	return b
}

// cut returns, under j.mu, the blocks holding the newest n records — all
// retained, or at most limit when limit > 0 — oldest first, and how many
// records at the front of the first block precede the cut.
func (j *Journal) cut(limit int) (blocks []Block, skip, n int) {
	n = min(j.n, j.cap)
	if limit > 0 {
		n = min(n, limit)
	}
	skip = j.n - n
	blocks = make([]Block, 0, j.used)
	for i := range j.used {
		b := j.blocks[(j.head+i)%len(j.blocks)]
		if len(blocks) == 0 && skip >= b.N {
			skip -= b.N
			continue
		}
		blocks = append(blocks, b)
	}
	return blocks, skip, n
}

// Len returns the number of retained entries.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return min(j.n, j.cap)
}

// Evicted returns how many recorded entries the journal no longer retains.
func (j *Journal) Evicted() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq - int64(min(j.n, j.cap))
}

// Snapshot returns the retained entries in record order (oldest first).
func (j *Journal) Snapshot() []Entry {
	entries, _ := j.Export()
	return entries
}

// Export decodes the retained entries (oldest first) and returns them with
// the eviction count, read under one lock so the pair is consistent: evicted
// is exactly the sequence numbers missing before the first retained entry
// (entries[i].Seq == evicted + i + 1). Reading them separately can pair a
// snapshot with an eviction count from a later burst of writes, reporting
// drops for entries that are still present.
func (j *Journal) Export() (entries []Entry, evicted int64) {
	if j == nil {
		return nil, 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	blocks, skip, n := j.cut(0)
	entries = make([]Entry, 0, skip+n)
	for _, b := range blocks {
		entries = AppendEntries(entries, b.Recs)
	}
	return entries[skip:], j.seq - int64(n)
}

// Visit calls fn with the newest retained entries — all, or at most limit
// when limit > 0 — as blocks of records in order, their number n, and the
// count of entries recorded before them, all under the journal's lock: the
// same consistent cut Export decodes, without decoding it. When the cut
// falls inside a block, that one block is re-encoded from its first kept
// record. Records wait until fn returns, so fn must not record into j, and
// must not keep the blocks. A nil Journal visits nothing.
func (j *Journal) Visit(limit int, fn func(blocks []Block, n int, evicted int64) error) error {
	if j == nil {
		return fn(nil, 0, 0)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	blocks, skip, n := j.cut(limit)
	if skip > 0 {
		kept := AppendEntries(make([]Entry, 0, blocks[0].N), blocks[0].Recs)[skip:]
		cut := Block{Recs: make([]byte, 0, len(blocks[0].Recs)+MaxRecord), N: len(kept)}
		var w RecordWriter
		for i := range kept {
			cut.Recs = w.Append(cut.Recs, &kept[i])
		}
		blocks[0] = cut
	}
	return fn(blocks, n, j.seq-int64(n))
}

// WriteJSONL writes the retained entries as JSON Lines, one entry per
// line. When entries were evicted, a leading meta line reports how many.
func (j *Journal) WriteJSONL(w io.Writer) error {
	if j == nil {
		return nil
	}
	entries, evicted := j.Export()
	return WriteEntriesJSONL(w, entries, evicted)
}

// WriteEntriesJSONL writes entries as JSON Lines with a leading
// journal-truncated meta line when evicted > 0 — the serialization shared
// by single-journal and federation-merged exports.
func WriteEntriesJSONL(w io.Writer, entries []Entry, evicted int64) error {
	enc := json.NewEncoder(w)
	if evicted > 0 {
		meta := struct {
			Type    string `json:"type"`
			Evicted int64  `json:"evicted"`
		}{"journal-truncated", evicted}
		if err := enc.Encode(meta); err != nil {
			return err
		}
	}
	for i := range entries {
		if err := enc.Encode(&entries[i]); err != nil {
			return err
		}
	}
	return nil
}
