package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// expvarReg is the registry the process-wide expvar view reads from;
// publishing into expvar is once-per-process (expvar.Publish panics on
// duplicates), so ServeHandler swaps the pointer instead of re-publishing.
var (
	expvarReg  atomic.Pointer[Registry]
	expvarOnce sync.Once
)

func publishExpvar() {
	expvar.Publish("rtsads", expvar.Func(func() any {
		return expvarReg.Load().Snapshot()
	}))
}

// Server is the HTTP debug endpoint: a run's own routes (one cluster's are
// /metrics as Prometheus text exposition, /healthz as per-worker liveness
// JSON, /journal as JSON Lines, /slo and /trace/task) plus /debug/vars
// (expvar) and /debug/pprof. It binds eagerly so ":0" works, and serves in
// the background until Close.
type Server struct {
	lis net.Listener
	srv *http.Server
}

// Serve starts the debug endpoint on addr (host:port; port 0 picks a free
// port) over the observer's registry, journal and health view.
func Serve(addr string, o *Observer) (*Server, error) {
	return ServeHandler(addr, o.handler(), o.Registry())
}

// ServeHandler starts a debug endpoint on addr serving h — one cluster's
// routes or a federation's — with the process-wide ones mounted beside it:
// /debug/pprof/* and /debug/vars, the latter publishing reg. Every debug
// server goes through here, so every topology can be profiled the same way.
func ServeHandler(addr string, h http.Handler, reg *Registry) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	expvarReg.Store(reg)
	expvarOnce.Do(publishExpvar)

	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{
		lis: lis,
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
	}
	go s.srv.Serve(lis)
	return s, nil
}

// handler builds one cluster's routes over the observer's registry, journal
// and health view.
func (o *Observer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		o.Registry().WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		workers := o.Health()
		alive := 0
		for _, h := range workers {
			if h.Alive {
				alive++
			}
		}
		status := "ok"
		if alive < len(workers) {
			status = "degraded"
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Status  string         `json:"status"`
			Alive   int            `json:"alive"`
			Total   int            `json:"total"`
			Workers []WorkerHealth `json:"workers"`
		}{status, alive, len(workers), workers})
	})
	mux.HandleFunc("/journal", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		o.Journal().WriteJSONL(w)
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(o.SLOInput().Summary())
	})
	mux.HandleFunc("/trace/task", func(w http.ResponseWriter, r *http.Request) {
		ServeTaskTrace(w, r, func() ([]Entry, int64) { return o.Journal().Export() })
	})
	return mux
}

// ServeTaskTrace answers /trace/task?id=N over any journal source — one
// cluster's journal or a federation merge. The payload is the task's
// assembled span chain, terminal state and slack accounting, plus the
// journal's eviction count so a truncated ring is reported rather than
// mistaken for a missing task. Shared by the single-cluster debug server
// and the federation handler.
func ServeTaskTrace(w http.ResponseWriter, r *http.Request, export func() ([]Entry, int64)) {
	w.Header().Set("Content-Type", "application/json")
	id, err := strconv.Atoi(r.URL.Query().Get("id"))
	if err != nil {
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "missing or non-numeric id parameter"})
		return
	}
	entries, evicted := export()
	tt := TaskTraceFor(entries, id)
	if tt == nil {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(struct {
			Error   string `json:"error"`
			Evicted int64  `json:"evicted"`
		}{fmt.Sprintf("no lifecycle spans for task %d", id), evicted})
		return
	}
	json.NewEncoder(w).Encode(struct {
		*TaskTrace
		Evicted int64 `json:"evicted"`
	}{tt, evicted})
}

// Addr returns the bound address (resolving ":0" to the actual port).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// URL returns the endpoint's base URL.
func (s *Server) URL() string {
	if s == nil {
		return ""
	}
	return "http://" + s.Addr()
}

// Close stops the server immediately.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
