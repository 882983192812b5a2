package federation

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

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
