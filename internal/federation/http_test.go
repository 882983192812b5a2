package federation

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/obs"
	"rtsads/internal/workload"
)

// TestDebugEndpointServesPprofAndFederationRoutes: the sharded topology is
// served by the same debug server as a single cluster, so the documented
// `go tool pprof <addr>/debug/pprof/...` recipe and /debug/vars work with
// -shards too, next to the federation's own merged views.
func TestDebugEndpointServesPprofAndFederationRoutes(t *testing.T) {
	p := workload.DefaultParams(4)
	p.NumTransactions = 24
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{
		Workload:  w,
		Topology:  Topology{Shards: 2, WorkersPerShard: 2},
		Placement: AffinityFirst,
		Scale:     200,
		Admission: admission.Config{Policy: admission.Reject, QueueCap: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	srv, err := obs.ServeHandler("127.0.0.1:0", f.Handler(), f.Registry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for path, want := range map[string]string{
		"/debug/pprof/cmdline": "",
		"/debug/vars":          MetricRouted,
		"/metrics":             `shard="1"`,
		"/healthz":             `"shards"`,
		"/slo":                 `"federation"`,
		"/journal":             `"type":"route"`,
		fmt.Sprintf("/trace/task?id=%d", w.Tasks[0].ID): `"spans"`,
	} {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("GET %s = %d, want 200 with %q in the body:\n%.300s", path, resp.StatusCode, want, body)
		}
	}
}

// TestDebugEndpointServesRemoteShards: over TCP the shard observers behind
// /metrics and /healthz stay empty, so each remote shard is rendered from its
// last Progress frame instead. Mid-run, every shard's workers show alive and
// its admitted count moves; after the run, every count equals the shard's
// result.
func TestDebugEndpointServesRemoteShards(t *testing.T) {
	p := workload.DefaultParams(4)
	p.NumTransactions = 200
	p.Arrival = workload.Poisson
	p.MeanInterArrival = 40 * time.Microsecond // ≈1.6 s of arrivals at Scale 200
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	farm := newShardFarm(t, 2)
	f, err := New(Config{
		Workload:   w,
		Topology:   Topology{Shards: 2, WorkersPerShard: 2},
		Placement:  AffinityFirst,
		Scale:      200,
		ShardAddrs: farm.addrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := obs.ServeHandler("127.0.0.1:0", f.Handler(), f.Registry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	sample := func(metrics, name string) int64 {
		for _, line := range strings.Split(metrics, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				n, _ := strconv.ParseInt(v, 10, 64)
				return n
			}
		}
		return -1
	}

	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := f.Run()
		done <- outcome{res, err}
	}()
	var out outcome
	seen := false
	for !seen {
		select {
		case out = <-done:
			t.Fatal("the run ended before a scrape saw every remote shard alive and admitting")
		case <-time.After(10 * time.Millisecond):
		}
		metrics, health := get("/metrics"), get("/healthz")
		seen = strings.Contains(health, `{"shard":0,"alive":2,"total":2`) &&
			strings.Contains(health, `{"shard":1,"alive":2,"total":2`)
		for i := 0; i < 2; i++ {
			seen = seen && sample(metrics, fmt.Sprintf("%s{shard=\"%d\"}", obs.MetricAdmitted, i)) > 0 &&
				sample(metrics, fmt.Sprintf("%s{shard=\"%d\"}", obs.MetricWorkersAlive, i)) == 2
		}
	}
	out = <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	metrics := get("/metrics")
	// A remote shard's /metrics is its last Progress frame: the counts that
	// frame carries, checked against the books' mirror. A labelled name
	// gains the shard label ahead of its own.
	for i, r := range out.res.Shards {
		for k, want := range obs.Mirror(r) {
			name := fmt.Sprintf("%s{shard=\"%d\"}", k, i)
			if base, labels, ok := strings.Cut(k, "{"); ok {
				name = fmt.Sprintf("%s{shard=\"%d\",%s", base, i, labels)
			}
			if got := sample(metrics, name); got != int64(want) {
				t.Errorf("shard %d: /metrics %s = %d, result says %d", i, name, got, want)
			}
		}
	}
}
