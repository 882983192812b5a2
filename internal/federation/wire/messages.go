package wire

import (
	"rtsads/internal/admission"
	"rtsads/internal/core"
	"rtsads/internal/obs"
	"rtsads/internal/workload"
)

// Hello configures a remote shard session. The shard regenerates the
// workload deterministically from Params and projects its own slice with
// the topology fields — the database never crosses the wire, exactly like
// a worker's hello. Topology is carried as plain ints so the wire package
// stays independent of the federation package.
type Hello struct {
	Params workload.Params `json:"params"`

	Shards          int `json:"shards"`
	WorkersPerShard int `json:"workers_per_shard"`
	Shard           int `json:"shard"` // this session's shard index

	Algorithm     string  `json:"algorithm"`
	Scale         float64 `json:"scale"`
	StartUnixNano int64   `json:"start_unix_nano"` // shared clock epoch

	// HeartbeatNano and TimeoutNano carry the router's liveness settings
	// so both ends of the session agree; with Redials and the Straggler
	// pair they are also the shard cluster's own. Zero selects defaults.
	HeartbeatNano      int64 `json:"heartbeat_nano,omitempty"`
	TimeoutNano        int64 `json:"timeout_nano,omitempty"`
	Redials            int   `json:"redials,omitempty"`
	StragglerGraceNano int64 `json:"straggler_grace_nano,omitempty"`
	StragglerStrikes   int   `json:"straggler_strikes,omitempty"`

	Admission      admission.Config `json:"admission,omitempty"`
	Backpressure   int              `json:"backpressure,omitempty"`
	SlackGuardNano int64            `json:"slack_guard_nano,omitempty"`
	JournalCap     int              `json:"journal_cap,omitempty"`
	// Degrade is the degraded-mode controller's configuration; nil means no
	// controller, a zero value a controller on its defaults.
	Degrade *core.DegradeConfig `json:"degrade,omitempty"`

	// Rejoin marks this hello as a re-handshake after a session loss: the
	// router has already salvaged the dead session's outstanding tasks and
	// folded its books, and the shard should serve a fresh session under
	// the same shard index. Epoch counts sessions (0 = first); ResumeSeq is
	// the last checkpoint sequence the router applied from the previous
	// session, carried as the rejoin watermark so both sides agree on what
	// state was already replayed into the router's ledger.
	Rejoin    bool   `json:"rejoin,omitempty"`
	Epoch     int    `json:"epoch,omitempty"`
	ResumeSeq uint64 `json:"resume_seq,omitempty"`
}

// Summary is the shard's periodic state report: the load snapshot the
// router's placement reads (refreshed between summaries by Load frames,
// one per changed host-loop publication), plus the registry counters the
// router's settle loop and a mid-run reconciliation read. It doubles as
// the shard→router heartbeat.
type Summary struct {
	Load Load `json:"load"`
	// Counters is the shard registry snapshot (the rtsads_* families).
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Checkpoint is the shard's periodic durable-progress snapshot: the task
// IDs that reached a terminal verdict since the previous checkpoint, plus
// the cumulative settle-derived verdict counts consistent with them. The
// shard records each settled ID and its bucket count in one critical
// section (see obs.OnSettle), so Counters charges exactly the union of
// Settled lists shipped through Seq — the invariant the router's salvage
// accounting leans on: at any death it can partition the shard's
// submissions into settled (per Counters), outstanding (salvageable) and
// migrated-away, with no task double-counted or dropped.
type Checkpoint struct {
	// Seq increases by one per checkpoint within a session; the router
	// ignores stale or duplicate sequences.
	Seq uint64 `json:"seq"`
	// Settled lists task IDs newly verdicted since checkpoint Seq-1.
	Settled []int32 `json:"settled,omitempty"`
	// Counters carries the cumulative per-verdict counts (the hits,
	// missed, purged, lost and shed rtsads_* keys) covering exactly the
	// IDs shipped through Seq.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Sealed reports whether the shard's feed has been closed.
	Sealed bool `json:"sealed,omitempty"`
}

// JournalExport ships the shard's lifecycle journal at seal time, as one
// or more consecutive Journal frames of bounded size: the router appends
// each frame's Entries in order, and every frame repeats Evicted.
type JournalExport struct {
	Entries []obs.Entry `json:"entries"`
	Evicted int64       `json:"evicted"`
}
