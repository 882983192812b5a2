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
// for every event of a sizeable run, small enough to never matter.
const DefaultJournalCap = 65536

// Journal is a bounded, concurrency-safe ring of Entries recording a live
// run's lifecycle. When full it evicts the oldest entries (the interesting
// tail of a run is the recent past) and counts the evictions, so exports
// report the truncation instead of hiding it. A nil Journal discards
// records.
type Journal struct {
	mu      sync.Mutex
	entries []Entry
	start   int // ring read position
	n       int // live entries
	seq     int64
	evicted int64
}

// NewJournal returns a journal keeping at most cap entries (cap <= 0
// selects DefaultJournalCap).
func NewJournal(cap int) *Journal {
	if cap <= 0 {
		cap = DefaultJournalCap
	}
	return &Journal{entries: make([]Entry, 0, cap)}
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
	if j.n < cap(j.entries) {
		j.entries = append(j.entries, e)
		j.n++
	} else {
		j.entries[j.start] = e
		j.start = (j.start + 1) % j.n
		j.evicted++
	}
	j.mu.Unlock()
}

// Len returns the number of retained entries.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Evicted returns how many entries were overwritten because the journal
// was full.
func (j *Journal) Evicted() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.evicted
}

// Snapshot returns the retained entries in record order (oldest first).
func (j *Journal) Snapshot() []Entry {
	entries, _ := j.Export()
	return entries
}

// Export returns the retained entries (oldest first) together with the
// eviction count, read under one lock so the pair is consistent: evicted
// is exactly the sequence numbers missing before the first retained entry
// (entries[i].Seq == evicted + i + 1). Reading them separately can pair a
// snapshot with an eviction count from a later burst of writes, reporting
// drops for entries that are still present.
func (j *Journal) Export() (entries []Entry, evicted int64) {
	if j == nil {
		return nil, 0
	}
	j.Visit(func(older, newer []Entry, ev int64) error {
		entries = append(append(make([]Entry, 0, len(older)+len(newer)), older...), newer...)
		evicted = ev
		return nil
	})
	return entries, evicted
}

// Visit calls fn with the retained entries in record order — the ring's two
// contiguous runs, older then newer, either possibly empty — and the
// eviction count, all under the journal's lock: the same consistent cut
// Export copies (the i-th entry across both runs has Seq evicted+i+1),
// without the copy. Records wait until fn returns, so fn must not record
// into j, and must not keep the slices. A nil Journal visits nothing.
func (j *Journal) Visit(fn func(older, newer []Entry, evicted int64) error) error {
	if j == nil {
		return fn(nil, nil, 0)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return fn(j.entries[j.start:j.n], j.entries[:j.start], j.evicted)
}

// entryTypes holds one copy of every Type the repo records — this package's
// events and the federation router's rejoin — for InternType.
var entryTypes = func() map[string]string {
	m := make(map[string]string)
	for _, t := range []string{
		"run-start", "run-end", "arrival", "admit", "phase-start", "phase-end",
		"deliver", "exec", "purge", "lost", "reroute", "route", "migrate",
		"route-reject", "rejoin", "shed", "bounce", "worker-down",
		"straggler", "heartbeat", "redial",
	} {
		m[t] = t
	}
	return m
}()

// InternType returns the entry Type spelled by b: the shared copy of a type
// the repo records, without allocating, or a fresh string for any other.
func InternType(b []byte) string {
	if t, ok := entryTypes[string(b)]; ok {
		return t
	}
	return string(b)
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
