package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestServeEndpoints(t *testing.T) {
	o := New(0)
	o.SetWorkers(3)
	o.Arrival(1, 0, 7)
	o.Admitted(1, 7, 0)
	o.Exec(1, 0, 0, 5, true, 5, 2)
	o.WorkerDown(2, true, "killed by test", 7)
	o.Reroute(9, 2, 8)

	srv, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := srv.URL()
	if !strings.Contains(srv.Addr(), ":") || strings.HasSuffix(srv.Addr(), ":0") {
		t.Fatalf("Addr did not resolve the port: %q", srv.Addr())
	}

	code, body, hdr := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain") {
		t.Errorf("/metrics content-type %q", hdr.Get("Content-Type"))
	}
	for _, want := range []string{
		MetricHits + " 1",
		MetricWorkerFailures + " 1",
		MetricRerouted + " 1",
		MetricWorkersAlive + " 2",
		`rtsads_worker_up{worker="2"} 0`,
		"# TYPE " + MetricResponseTime + " histogram",
		"# TYPE " + MetricWorkerOvershoot + " histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body, _ = get(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	var health struct {
		Status  string         `json:"status"`
		Alive   int            `json:"alive"`
		Total   int            `json:"total"`
		Workers []WorkerHealth `json:"workers"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, body)
	}
	if health.Status != "degraded" || health.Alive != 2 || health.Total != 3 {
		t.Errorf("/healthz = %+v, want degraded 2/3", health)
	}
	if len(health.Workers) != 3 || health.Workers[2].Alive {
		t.Errorf("/healthz workers = %+v, want worker 2 dead", health.Workers)
	}

	code, body, _ = get(t, base+"/journal")
	if code != http.StatusOK {
		t.Fatalf("/journal status %d", code)
	}
	if !strings.Contains(body, `"worker-down"`) || !strings.Contains(body, `"reroute"`) {
		t.Errorf("/journal missing fault entries:\n%s", body)
	}

	code, body, _ = get(t, base+"/slo")
	if code != http.StatusOK {
		t.Fatalf("/slo status %d", code)
	}
	var slo SLOSummary
	if err := json.Unmarshal([]byte(body), &slo); err != nil {
		t.Fatalf("/slo not JSON: %v\n%s", err, body)
	}
	if slo.Hits != 1 || slo.Admitted != 1 || slo.GuaranteeRatioPPM != 1_000_000 {
		t.Errorf("/slo = %+v, want 1 hit, 1 admitted, ratio 1000000", slo)
	}
	if slo.SlackAdmission.Count != 1 || slo.SlackCompletion.Count != 1 {
		t.Errorf("/slo slack digests = %+v / %+v, want one sample each",
			slo.SlackAdmission, slo.SlackCompletion)
	}

	code, body, _ = get(t, base+"/trace/task?id=1")
	if code != http.StatusOK {
		t.Fatalf("/trace/task?id=1 status %d:\n%s", code, body)
	}
	var tt struct {
		TaskTrace
		Evicted int64 `json:"evicted"`
	}
	if err := json.Unmarshal([]byte(body), &tt); err != nil {
		t.Fatalf("/trace/task not JSON: %v\n%s", err, body)
	}
	if tt.Task != 1 || tt.Terminal != TerminalCompleted || len(tt.Spans) < 3 {
		t.Errorf("/trace/task = %+v, want completed task 1 with arrival+admit+exec spans", tt.TaskTrace)
	}

	if code, _, _ := get(t, base+"/trace/task"); code != http.StatusBadRequest {
		t.Errorf("/trace/task without id: status %d, want 400", code)
	}
	if code, _, _ := get(t, base+"/trace/task?id=999"); code != http.StatusNotFound {
		t.Errorf("/trace/task unknown id: status %d, want 404", code)
	}

	code, body, _ = get(t, base+"/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars status %d", code)
	}
	if !strings.Contains(body, `"rtsads"`) {
		t.Errorf("/debug/vars missing rtsads var:\n%s", body)
	}

	code, _, _ = get(t, base+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	code, _, _ = get(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("127.0.0.1:-1", New(0)); err == nil {
		t.Fatal("Serve on an invalid address did not fail")
	}
}

func TestServeNilServerSafe(t *testing.T) {
	var s *Server
	if s.Addr() != "" || s.URL() != "" || s.Close() != nil {
		t.Error("nil server methods not inert")
	}
}
