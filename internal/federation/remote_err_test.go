package federation

import (
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/federation/wire"
	"rtsads/internal/livecluster"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// fakeShard is a listener that speaks just enough of the wire protocol to
// pass the handshake, hello and first-summary exchange, then hands the live
// connection to script — the test's chance to misbehave in a precisely
// scripted way. After script returns, the remaining router frames are
// drained so nothing blocks while the session winds down.
func fakeShard(t *testing.T, script func(c *wire.Conn) error) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen fake shard: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		c := wire.NewConn(nc)
		deadline := time.Now().Add(10 * time.Second)
		c.SetReadDeadline(deadline)
		c.SetWriteDeadline(deadline)
		if err := c.ReadHandshake(); err != nil {
			return
		}
		if err := c.WriteHandshake(); err != nil {
			return
		}
		typ, _, err := c.ReadFrame()
		if err != nil || typ != wire.TypeHello {
			return
		}
		sum, err := json.Marshal(wire.Summary{Load: livecluster.Summary{Workers: 2, Alive: 2}})
		if err != nil {
			return
		}
		if err := c.WriteFrame(wire.TypeSummary, sum); err != nil {
			return
		}
		if err := script(c); err != nil {
			return
		}
		for {
			c.SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, _, err := c.ReadFrame(); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// waitForSubmit reads router frames until one Submit arrives and returns
// the batch's task IDs.
func waitForSubmit(c *wire.Conn) ([]task.ID, error) {
	for {
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		typ, body, err := c.ReadFrame()
		if err != nil {
			return nil, err
		}
		if typ != wire.TypeSubmit {
			continue
		}
		ts, err := wire.DecodeSubmit(body, func() *task.Task { return new(task.Task) })
		if err != nil {
			return nil, err
		}
		ids := make([]task.ID, len(ts))
		for i, t := range ts {
			ids[i] = t.ID
		}
		return ids, nil
	}
}

// writeJSON sends v as one JSON frame.
func writeJSON(c *wire.Conn, typ byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return c.WriteFrame(typ, payload)
}

// TestFederationLiveTCPSessionDeathPaths drives every way a shard session
// can die from the frame stream — a shard-reported error frame, undecodable
// journal and result payloads, an unknown frame type, a connection cut in
// the middle of a reject/verdict exchange, and a connection cut after the
// result. Each death must leave the remote handle carrying a descriptive
// error while the run itself survives: the dead shard's tasks are salvaged
// or charged lost and every Reconcile identity still holds. The cut after
// the result is the exception: the result is terminal, so the handle ends
// cleanly on the shard's own books.
func TestFederationLiveTCPSessionDeathPaths(t *testing.T) {
	cases := []struct {
		name string
		// script misbehaves on the live session after letting some work
		// arrive; wantErr is a substring of the session error it must cause,
		// empty when the exact failure point is timing-dependent.
		script  func(c *wire.Conn) error
		wantErr string
		// terminal marks a session that breaks after its result landed: no
		// death, no session error.
		terminal bool
	}{
		{
			name: "error-frame",
			script: func(c *wire.Conn) error {
				if _, err := waitForSubmit(c); err != nil {
					return err
				}
				return c.WriteFrame(wire.TypeError, []byte("scheduler wedged"))
			},
			wantErr: "shard 1 reported: scheduler wedged",
		},
		{
			name: "bad-journal",
			script: func(c *wire.Conn) error {
				if _, err := waitForSubmit(c); err != nil {
					return err
				}
				return c.WriteFrame(wire.TypeJournal, []byte("{not json"))
			},
			wantErr: "shard 1 journal:",
		},
		{
			name: "bad-result",
			script: func(c *wire.Conn) error {
				if _, err := waitForSubmit(c); err != nil {
					return err
				}
				return c.WriteFrame(wire.TypeResult, []byte("{not json"))
			},
			wantErr: "shard 1 result:",
		},
		{
			name: "unknown-frame",
			script: func(c *wire.Conn) error {
				if _, err := waitForSubmit(c); err != nil {
					return err
				}
				return c.WriteFrame(99, []byte("mystery"))
			},
			wantErr: "shard 1 sent unknown frame type 99",
		},
		{
			// The shard bounces a genuinely-submitted task and the connection
			// dies before the verdict round-trip completes: depending on which
			// side of the exchange notices first this surfaces as a verdict
			// write failure or a connection loss, so only death itself is
			// asserted — with the books still exactly balanced.
			name: "reject-then-close",
			script: func(c *wire.Conn) error {
				ids, err := waitForSubmit(c)
				if err != nil {
					return err
				}
				rej := wire.EncodeReject(nil, wire.Reject{
					ID:     int32(ids[0]),
					Reason: string(admission.QueueFull),
				})
				if err := c.WriteFrame(wire.TypeReject, rej); err != nil {
					return err
				}
				return c.Close()
			},
			wantErr: "",
		},
		{
			// An honest shard that hits every task it is fed and reports so
			// (summary counters for the settle loop, checkpoints for the
			// ledger), answers the seal with its result — and loses the
			// connection before journal and Bye, as a late read deadline or a
			// reset from the closed socket does. Folding the ledger on top of
			// that result would count every task twice.
			name: "result-then-close",
			script: func(c *wire.Conn) error {
				var seq uint64
				var n int64
				for {
					c.SetReadDeadline(time.Now().Add(10 * time.Second))
					typ, body, err := c.ReadFrame()
					if err != nil {
						return err
					}
					switch typ {
					case wire.TypeSubmit:
						ts, err := wire.DecodeSubmit(body, func() *task.Task { return new(task.Task) })
						if err != nil {
							return err
						}
						ids := make([]int32, len(ts))
						for i, t := range ts {
							ids[i] = int32(t.ID)
						}
						n += int64(len(ts))
						seq++
						counters := map[string]int64{obs.MetricHits: n}
						if err := writeJSON(c, wire.TypeSummary, wire.Summary{
							Load: livecluster.Summary{Workers: 2, Alive: 2}, Counters: counters,
						}); err != nil {
							return err
						}
						if err := writeJSON(c, wire.TypeCheckpoint, wire.Checkpoint{
							Seq: seq, Settled: ids, Counters: counters,
						}); err != nil {
							return err
						}
					case wire.TypeSeal:
						if err := writeJSON(c, wire.TypeResult, metrics.RunResult{
							Workers: 2, Total: int(n), Hits: int(n),
						}); err != nil {
							return err
						}
						return c.Close()
					}
				}
			},
			terminal: true,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := workload.DefaultParams(4)
			p.NumTransactions = 96
			w, err := workload.Generate(p)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			farm := newShardFarm(t, 1)
			addrs := []string{farm.addrs[0], fakeShard(t, tc.script)}
			f, err := New(Config{
				Workload:   w,
				Topology:   Topology{Shards: 2, WorkersPerShard: 2},
				Placement:  AffinityFirst,
				Migrate:    true,
				Scale:      50,
				Admission:  admission.Config{Policy: admission.Reject, QueueCap: 8},
				SlackGuard: 25 * time.Microsecond,
				ShardAddrs: addrs,
			})
			if err != nil {
				t.Fatalf("new: %v", err)
			}
			res, err := f.Run()
			if err != nil {
				t.Fatalf("run must survive a misbehaving shard, got: %v", err)
			}
			if err := res.Reconcile(); err != nil {
				t.Fatalf("reconcile after %s: %v", tc.name, err)
			}
			if res.Routed != len(w.Tasks) {
				t.Errorf("routed %d of %d tasks", res.Routed, len(w.Tasks))
			}
			rs, ok := f.handles[1].(*remoteShard)
			if !ok {
				t.Fatalf("shard 1 handle is %T, want *remoteShard", f.handles[1])
			}
			sessErr := rs.Err()
			if tc.terminal {
				if sessErr != nil {
					t.Errorf("session that ended after its result reports a death: %v", sessErr)
				}
				if got := res.Shards[1]; got.Total == 0 || got.Hits != got.Total {
					t.Errorf("shard 1 books are not the result it sent: total=%d hits=%d", got.Total, got.Hits)
				}
				return
			}
			if sessErr == nil {
				t.Fatalf("shard 1 session survived %s; want a session death error", tc.name)
			}
			if tc.wantErr != "" && !strings.Contains(sessErr.Error(), tc.wantErr) {
				t.Errorf("session error = %q, want substring %q", sessErr, tc.wantErr)
			}
			t.Logf("%s: session error %q; shard 1 books total=%d lost=%d; salvaged=%d salvage-lost=%d",
				tc.name, sessErr, res.Shards[1].Total, res.Shards[1].LostToFailure, res.Salvaged, res.SalvageLost)
		})
	}
}
