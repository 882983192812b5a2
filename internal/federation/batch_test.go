package federation

import (
	"fmt"
	"net"
	"reflect"
	"testing"

	"rtsads/internal/admission"
	"rtsads/internal/federation/wire"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// batchSimConfig is the shared configuration for the batching differential
// tests: migration on and a tight queue cap so bounces (and therefore
// mid-batch re-placements) actually happen, exercising every path whose
// ordering the batch pipeline could plausibly perturb.
func batchSimConfig(w *workload.Workload) SimConfig {
	return SimConfig{
		Workload:  w,
		Topology:  Topology{Shards: 4, WorkersPerShard: 2},
		Placement: AffinityFirst,
		Migrate:   true,
		Admission: admission.Config{Policy: admission.Reject, QueueCap: 40, RejectHopeless: true},
	}
}

// TestSimulateBatchCapInvariance is the batching determinism contract: any
// BatchCap — including 1, which degenerates to per-task submission — must
// produce a bit-identical Result. Between two same-instant arrivals no shard
// steps, so the only state that distinguishes their placement views is the
// Submitted tie-break, which every chunk tracks incrementally.
func TestSimulateBatchCapInvariance(t *testing.T) {
	w := sectionWorkload(t, 8)
	run := func(cap int) *Result {
		t.Helper()
		cfg := batchSimConfig(w)
		cfg.BatchCap = cap
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("simulate cap=%d: %v", cap, err)
		}
		return res
	}
	base := run(0)
	if base.Bounced == 0 {
		t.Fatal("configuration produced no bounces; the invariance test would not cover migration")
	}
	for _, cap := range []int{1, 2, 3, 7, 16, 1 << 20} {
		if got := run(cap); !reflect.DeepEqual(base, got) {
			t.Errorf("BatchCap=%d diverged from unchunked routing:\nbase %+v\ngot  %+v",
				cap, base.Combined(), got.Combined())
		}
	}
}

// TestSimulateBatchSplitPlacementSequence is the satellite placement
// property: however the router splits an arrival group into batches, each
// shard must receive exactly the same task IDs in exactly the same order.
// The Transport hook observes every localized batch on its way in.
func TestSimulateBatchSplitPlacementSequence(t *testing.T) {
	w := sectionWorkload(t, 8)
	capture := func(cap int) [][]task.ID {
		t.Helper()
		cfg := batchSimConfig(w)
		cfg.BatchCap = cap
		seq := make([][]task.ID, cfg.Topology.Shards)
		cfg.Transport = func(shard int, batch []*task.Task) []*task.Task {
			for _, tk := range batch {
				seq[shard] = append(seq[shard], tk.ID)
			}
			return batch
		}
		if _, err := Simulate(cfg); err != nil {
			t.Fatalf("simulate cap=%d: %v", cap, err)
		}
		return seq
	}
	base := capture(0)
	total := 0
	for _, s := range base {
		total += len(s)
	}
	if total < len(w.Tasks) {
		t.Fatalf("transport saw %d submissions for %d tasks", total, len(w.Tasks))
	}
	for _, cap := range []int{1, 3, 17, 64} {
		got := capture(cap)
		for s := range base {
			if !reflect.DeepEqual(base[s], got[s]) {
				t.Errorf("BatchCap=%d: shard %d received a different task sequence (%d vs %d tasks)",
					cap, s, len(got[s]), len(base[s]))
			}
		}
	}
}

// TestSimulateTransportTCPRoundTrip is the wire differential: every
// router→shard batch detours through the binary submit codec over a real
// TCP loopback connection, and the simulation must stay bit-identical to
// the in-memory run — the encoding is proven lossless under live framing.
func TestSimulateTransportTCPRoundTrip(t *testing.T) {
	w := sectionWorkload(t, 8)

	base, err := Simulate(batchSimConfig(w))
	if err != nil {
		t.Fatalf("simulate baseline: %v", err)
	}

	client, server := tcpLoopback(t)
	// Echo server: decode each submit frame and send it straight back,
	// exercising both codec directions plus the length-prefixed framing.
	done := make(chan error, 1)
	go func() {
		defer close(done)
		for {
			typ, body, err := server.ReadFrame()
			if err != nil {
				return
			}
			if typ != wire.TypeSubmit {
				done <- fmt.Errorf("echo server got frame type %d", typ)
				return
			}
			if err := server.WriteFrame(wire.TypeSubmit, body); err != nil {
				done <- err
				return
			}
		}
	}()

	cfg := batchSimConfig(w)
	cfg.BatchCap = 5
	var buf []byte
	cfg.Transport = func(shard int, batch []*task.Task) []*task.Task {
		buf = wire.AppendSubmit(buf[:0], batch)
		if err := client.WriteFrame(wire.TypeSubmit, buf); err != nil {
			t.Fatalf("write submit: %v", err)
		}
		typ, body, err := client.ReadFrame()
		if err != nil || typ != wire.TypeSubmit {
			t.Fatalf("read echo: type=%d err=%v", typ, err)
		}
		out, err := wire.DecodeSubmit(body, func() *task.Task { return new(task.Task) })
		if err != nil {
			t.Fatalf("decode submit: %v", err)
		}
		return out
	}
	got, err := Simulate(cfg)
	if err != nil {
		t.Fatalf("simulate over TCP transport: %v", err)
	}
	client.Close()
	if err := <-done; err != nil {
		t.Fatalf("echo server: %v", err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Fatalf("TCP-loopback round-trip diverged from in-memory routing:\nbase %+v\ngot  %+v",
			base.Combined(), got.Combined())
	}
}

// tcpLoopback returns a connected wire.Conn pair over 127.0.0.1.
func tcpLoopback(t testing.TB) (client, server *wire.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	acc := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(acc)
			return
		}
		acc <- c
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	sc, ok := <-acc
	if !ok {
		cc.Close()
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { cc.Close(); sc.Close() })
	return wire.NewConn(cc), wire.NewConn(sc)
}
