package federation

import (
	"fmt"
	"testing"

	"rtsads/internal/federation/wire"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// BenchmarkFederationThroughput measures federated scheduling throughput —
// tasks admitted and driven to a terminal outcome per second of wall time —
// under the paper's §5.1 workload at a fixed total worker count, across
// three dimensions: shard count (does routing scale), batch size (batch=all
// is the amortized pipeline, batch=1 degenerates to per-task submission),
// and transport (wire=loopback detours every router→shard batch through the
// binary submit codec over a real TCP connection, pricing the protocol).
// The deterministic simulation (Simulate) is the engine, so the measurement
// isolates scheduling work (routing, per-shard search, migration
// bookkeeping) from virtual-clock sleeping.
//
// scripts/bench_cluster.sh runs this suite and writes BENCH_cluster.json;
// the committed copy at the repo root is the baseline CI gates against
// (gate: shards=4/batch=all on tasks/s and an absolute allocs/op cap).
func BenchmarkFederationThroughput(b *testing.B) {
	const totalWorkers = 8
	w, err := workload.Generate(workload.DefaultParams(totalWorkers))
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, cfg SimConfig) {
		b.Helper()
		b.ReportAllocs()
		settled := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := Simulate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			settled += res.Combined().Settled()
		}
		b.StopTimer()
		b.ReportMetric(float64(settled)/b.Elapsed().Seconds(), "tasks/s")
	}
	for _, shards := range []int{1, 2, 4} {
		tp, err := SplitWorkers(totalWorkers, shards)
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range []struct {
			name string
			cap  int
		}{{"all", 0}, {"1", 1}} {
			b.Run(fmt.Sprintf("shards=%d/batch=%s", shards, batch.name), func(b *testing.B) {
				run(b, SimConfig{
					Workload:  w,
					Topology:  tp,
					Placement: AffinityFirst,
					Migrate:   true,
					BatchCap:  batch.cap,
				})
			})
		}
	}
	b.Run("shards=4/wire=loopback", func(b *testing.B) {
		tp, err := SplitWorkers(totalWorkers, 4)
		if err != nil {
			b.Fatal(err)
		}
		client, server := tcpLoopback(b)
		go func() {
			for {
				typ, body, err := server.ReadFrame()
				if err != nil {
					return
				}
				_ = server.WriteFrame(typ, body)
			}
		}()
		var buf []byte
		run(b, SimConfig{
			Workload:  w,
			Topology:  tp,
			Placement: AffinityFirst,
			Migrate:   true,
			Transport: func(shard int, batch []*task.Task) []*task.Task {
				buf = wire.AppendSubmit(buf[:0], batch)
				if err := client.WriteFrame(wire.TypeSubmit, buf); err != nil {
					b.Fatalf("write submit: %v", err)
				}
				_, body, err := client.ReadFrame()
				if err != nil {
					b.Fatalf("read echo: %v", err)
				}
				out, err := wire.DecodeSubmit(body, func() *task.Task { return new(task.Task) })
				if err != nil {
					b.Fatalf("decode submit: %v", err)
				}
				return out
			},
		})
		client.Close()
	})
}
