package federation

import (
	"encoding/json"
	"fmt"
	"net/http"

	"rtsads/internal/obs"
)

// Handler returns the federation's debug endpoints (obs.ServeHandler serves
// them with /debug/pprof and /debug/vars mounted beside):
//
//	/metrics — one merged Prometheus exposition: the router's
//	    rtsads_fed_* counters plus every shard's rtsads_* families, each
//	    shard's samples carrying a shard="<i>" label so per-shard totals
//	    reconcile against the federation counters from one scrape. TYPE
//	    headers are emitted for the router's metrics and shard 0's; later
//	    shards' lazily-created families scrape as untyped, which the text
//	    format permits.
//	/healthz — JSON worker liveness per shard, plus an overall status.
//	/slo — per-shard SLO summaries plus the federation rollup (counters
//	    summed, guarantee ratio recomputed, slack quantiles merged
//	    conservatively).
//	/trace/task?id=N — one task's assembled lifecycle over the merged
//	    router + shard journals, wherever in the federation it ran.
//	/journal — the federation-merged journal as JSON Lines.
func (f *Federation) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		f.reg.WritePrometheus(w)
		for i, o := range f.obsShards {
			o.Registry().WritePrometheusLabeled(w, fmt.Sprintf("shard=%q", fmt.Sprint(i)), i == 0)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		type shardHealth struct {
			Shard   int                `json:"shard"`
			Alive   int                `json:"alive"`
			Total   int                `json:"total"`
			Workers []obs.WorkerHealth `json:"workers"`
		}
		out := struct {
			Status string        `json:"status"`
			Shards []shardHealth `json:"shards"`
		}{Status: "ok"}
		for i, o := range f.obsShards {
			workers := o.Health()
			alive := 0
			for _, h := range workers {
				if h.Alive {
					alive++
				}
			}
			if alive < len(workers) {
				out.Status = "degraded"
			}
			out.Shards = append(out.Shards, shardHealth{Shard: i, Alive: alive, Total: len(workers), Workers: workers})
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		shards := make([]obs.SLOSummary, len(f.obsShards))
		for i, o := range f.obsShards {
			shards[i] = o.SLOSummary()
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Federation obs.SLOSummary   `json:"federation"`
			Shards     []obs.SLOSummary `json:"shards"`
		}{obs.Combine(shards), shards})
	})
	mux.HandleFunc("/trace/task", func(w http.ResponseWriter, r *http.Request) {
		obs.ServeTaskTrace(w, r, f.MergedEntries)
	})
	mux.HandleFunc("/journal", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		entries, evicted := f.MergedEntries()
		obs.WriteEntriesJSONL(w, entries, evicted)
	})
	return mux
}
