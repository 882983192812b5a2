package federation

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
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
	return fakeShardOn(t, func(nc net.Conn) net.Conn { return nc }, script)
}

// fakeShardOn is fakeShard with the accepted connection passed through wrap
// first — the seam where a test tears the shard's byte stream.
func fakeShardOn(t *testing.T, wrap func(net.Conn) net.Conn, script func(c *wire.Conn) error) string {
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
		c := wire.NewConn(wrap(nc))
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

// honestShard is a scripted shard that hits every task it is fed and reports
// so — summary counters for the settle loop, checkpoints for the ledger — and
// answers the seal with its result. Heartbeats keep the router's read bound
// quiet in between. It returns after the result is written; journal and Bye
// are the caller's to send or withhold.
func honestShard(c *wire.Conn) error {
	var wmu sync.Mutex // the heartbeat goroutine writes too
	send := func(typ byte, v any) error {
		wmu.Lock()
		defer wmu.Unlock()
		return writeJSON(c, typ, v)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			wmu.Lock()
			c.WriteFrame(wire.TypeHeartbeat, nil)
			wmu.Unlock()
		}
	}()
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
			if err := send(wire.TypeSummary, wire.Summary{
				Load: livecluster.Summary{Workers: 2, Alive: 2}, Counters: counters,
			}); err != nil {
				return err
			}
			if err := send(wire.TypeCheckpoint, wire.Checkpoint{
				Seq: seq, Settled: ids, Counters: counters,
			}); err != nil {
				return err
			}
		case wire.TypeSeal:
			return send(wire.TypeResult, metrics.RunResult{Workers: 2, Total: int(n), Hits: int(n)})
		}
	}
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
// cleanly on the shard's own books. The last death is a write's, not a
// frame's: see neverReads.
func TestFederationLiveTCPSessionDeathPaths(t *testing.T) {
	t.Run("never-reads", neverReads)

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
				if err := honestShard(c); err != nil {
					return err
				}
				return c.Close()
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

// neverReads: a shard that passes the handshake and keeps sending summaries
// — so the router's read bound never fires — but stops reading. Once the
// socket buffers fill, a router write can make no progress; it must fail
// within the liveness timeout and the shard's outstanding tasks be salvaged,
// where an unbounded write would park SubmitBatch (and with it the pump, or
// a migration holding the router lock) forever.
func neverReads(t *testing.T) {
	live := livecluster.Liveness{HeartbeatEvery: 20 * time.Millisecond, Timeout: 250 * time.Millisecond}
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	deaf := fakeShard(t, func(c *wire.Conn) error {
		for {
			select {
			case <-stop:
				return nil
			case <-time.After(live.HeartbeatEvery):
			}
			c.SetWriteDeadline(time.Now().Add(10 * time.Second))
			if err := writeJSON(c, wire.TypeSummary, wire.Summary{Load: livecluster.Summary{Workers: 2, Alive: 2}}); err != nil {
				return err
			}
		}
	})

	p := workload.DefaultParams(4)
	p.NumTransactions = 96
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	farm := newShardFarm(t, 1)
	f, err := New(Config{
		Workload:   w,
		Topology:   Topology{Shards: 2, WorkersPerShard: 2},
		Migrate:    true,
		Scale:      50,
		Liveness:   live,
		ShardAddrs: []string{farm.addrs[0], deaf},
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if f.clock, err = livecluster.NewClock(f.cfg.Scale); err != nil {
		t.Fatal(err)
	}
	handles := make([]shardHandle, 2)
	for i, addr := range f.cfg.ShardAddrs {
		if handles[i], err = f.dialShard(i, addr); err != nil {
			t.Fatalf("dial shard %d: %v", i, err)
		}
	}
	f.mu.Lock()
	f.handles = handles
	f.mu.Unlock()
	rs := handles[1].(*remoteShard)

	// Half the tasks go out first and stay outstanding. The other half,
	// repeated into ~400 KB frames, fills any loopback socket buffer within a
	// few frames; a failed SubmitBatch withdraws its own IDs, and routeBatch
	// would salvage those itself. The byte cap only ends the loop if writes
	// somehow never block.
	half := len(w.Tasks) / 2
	if err := rs.SubmitBatch(w.Tasks[:half]); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	var batch []*task.Task
	for len(batch) < 8192 {
		batch = append(batch, w.Tasks[half:]...)
	}
	var blocked time.Duration
	for sent := 0; err == nil && sent < 1<<30; sent += len(batch) * wire.TaskRecordSize {
		t0 := time.Now()
		err = rs.SubmitBatch(batch)
		blocked = time.Since(t0)
	}
	if err == nil {
		t.Fatal("SubmitBatch kept succeeding into a shard that never reads")
	}
	if blocked > 4*live.Timeout {
		t.Errorf("the failing SubmitBatch blocked %v; want about the %v liveness timeout", blocked, live.Timeout)
	}
	// Recovery is asynchronous; its salvage pass re-offers every outstanding
	// task to shard 0 and books each as salvaged or salvage-lost.
	for deadline := time.Now().Add(4 * live.Timeout); ; time.Sleep(time.Millisecond) {
		f.mu.Lock()
		recovered := f.rt.res.Salvaged + f.rt.res.SalvageLost
		f.mu.Unlock()
		if rs.Err() != nil && recovered == half {
			t.Logf("write failed after %v: %v; %d outstanding tasks re-offered", blocked, rs.Err(), recovered)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard not salvaged %v after the write failed: err=%v recovered=%d", 4*live.Timeout, rs.Err(), recovered)
		}
	}
	for _, h := range handles {
		h.Seal()
		h.Wait()
	}
}

// tornConn tears the stream written through it: the first frames writes pass
// whole (a wire.Conn flushes one frame per Write, the preamble included),
// extra bytes of the next one follow, and everything after that is swallowed
// — the peer reads a stream cut there, then silence on an open connection.
// Heartbeats, which arrive whenever they like, pass uncounted until the cut.
type tornConn struct {
	net.Conn
	frames, extra int
	torn          bool
}

func (c *tornConn) Write(p []byte) (int, error) {
	switch {
	case c.torn:
	case len(p) == 5 && p[4] == wire.TypeHeartbeat:
		return c.Conn.Write(p)
	case c.frames > 0:
		c.frames--
		return c.Conn.Write(p)
	default:
		c.torn = true
		c.Conn.Write(p[:min(c.extra, len(p))])
	}
	return len(p), nil
}

// TestFederationLiveTCPTornStreams runs the federation against an honest
// shard whose byte stream is torn at every frame boundary (extra 0), inside
// every header (2) and inside every payload (9) of a short session:
// preamble, first summary, a summary and a checkpoint per submit, result,
// journal, Bye — seven frames when the hashed placement submits to the shard
// once. A cut before the first summary is whole fails the dial, and
// with it the run, within the hello timeout; any later cut is a session death
// the router must notice within the liveness timeout and absorb — every task
// routed, the books reconciled — except that a cut after the result leaves
// the shard's own books standing. Cuts past the end of the session replay it
// whole.
func TestFederationLiveTCPTornStreams(t *testing.T) {
	p := workload.DefaultParams(4)
	p.NumTransactions = 48
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	for frames := 0; frames < 8; frames++ {
		for _, extra := range []int{0, 2, 9} {
			t.Run(fmt.Sprintf("frames=%d+%dB", frames, extra), func(t *testing.T) {
				t.Parallel()
				farm := newShardFarm(t, 1)
				torn := fakeShardOn(t,
					func(nc net.Conn) net.Conn { return &tornConn{Conn: nc, frames: frames, extra: extra} },
					func(c *wire.Conn) error {
						if err := honestShard(c); err != nil {
							return err
						}
						if err := writeJSON(c, wire.TypeJournal, wire.JournalExport{}); err != nil {
							return err
						}
						return c.WriteFrame(wire.TypeBye, nil)
					})
				f, err := New(Config{
					Workload:  w,
					Topology:  Topology{Shards: 2, WorkersPerShard: 2},
					Placement: Hashed,
					Scale:     20,
					Liveness: livecluster.Liveness{
						HeartbeatEvery: 20 * time.Millisecond, Timeout: 150 * time.Millisecond,
						HelloTimeout: 300 * time.Millisecond, Redials: -1,
					},
					ShardAddrs: []string{farm.addrs[0], torn},
				})
				if err != nil {
					t.Fatalf("new: %v", err)
				}
				start := time.Now()
				res, err := f.Run()
				if frames < 2 { // preamble or first summary torn
					if err == nil {
						t.Fatal("run started on a shard that never finished its first summary")
					}
					if took := time.Since(start); took > 5*time.Second {
						t.Errorf("dial took %v to give up", took)
					}
					return
				}
				if err != nil {
					t.Fatalf("run must survive a torn shard stream, got: %v", err)
				}
				if err := res.Reconcile(); err != nil {
					t.Errorf("reconcile: %v", err)
				}
				if res.Routed != len(w.Tasks) {
					t.Errorf("routed %d of %d tasks", res.Routed, len(w.Tasks))
				}
			})
		}
	}
}
