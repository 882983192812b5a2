package wire

import (
	"rtsads/internal/admission"
	"rtsads/internal/workload"
)

// Hello configures a remote shard session. The shard draws the database,
// the replica placement and the transaction table deterministically from
// Params and projects its own slice with the topology fields — none of them
// crosses the wire, exactly like a worker's hello, and the run's task list
// stays with the router. Topology is carried as plain ints so the wire package
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
	// so both ends of the session agree; with the Straggler pair they are
	// also the shard cluster's own. Zero selects defaults.
	HeartbeatNano      int64 `json:"heartbeat_nano,omitempty"`
	TimeoutNano        int64 `json:"timeout_nano,omitempty"`
	StragglerGraceNano int64 `json:"straggler_grace_nano,omitempty"`
	StragglerStrikes   int   `json:"straggler_strikes,omitempty"`

	Admission      admission.Config `json:"admission,omitempty"`
	SlackGuardNano int64            `json:"slack_guard_nano,omitempty"`
	JournalCap     int              `json:"journal_cap,omitempty"`

	// Rejoin marks this hello as a re-handshake after a session loss: the
	// router has already salvaged the dead session's outstanding tasks and
	// folded its books, and the shard should serve a fresh session under
	// the same shard index. Epoch counts sessions (0 = first); ResumeSeq is
	// the last Progress sequence the router applied from the previous
	// session, carried as the rejoin watermark so both sides agree on what
	// state was already replayed into the router's ledger.
	Rejoin    bool   `json:"rejoin,omitempty"`
	Epoch     int    `json:"epoch,omitempty"`
	ResumeSeq uint64 `json:"resume_seq,omitempty"`
}
