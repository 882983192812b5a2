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
//	    format permits. A remote shard shows its last Progress frame: the
//	    books' counts and the worker gauges.
//	/healthz — JSON worker liveness per shard (a remote shard's from its
//	    load view), plus an overall status.
//	/slo — per-shard SLO summaries plus the federation rollup: the summary
//	    of the shards' summed books and bucket-merged slack histograms, so
//	    its quantiles are those of every shard's samples together (bucket
//	    upper edges clamped to the largest sample). A remote shard's counts
//	    are its last Progress frame's; the frame carries no histograms, so
//	    it contributes no slack samples.
//	/trace/task?id=N — one task's assembled lifecycle over the merged
//	    router + shard journals, wherever in the federation it ran.
//	/journal — the federation-merged journal as JSON Lines.
func (f *Federation) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		f.reg.WritePrometheus(w)
		for i, o := range f.obsShards {
			reg := o.Registry()
			if rs, ok := f.handle(i).(*remoteShard); ok {
				reg = progressRegistry(rs)
			}
			reg.WritePrometheusLabeled(w, fmt.Sprintf("shard=%q", fmt.Sprint(i)), i == 0)
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
			h := shardHealth{Shard: i, Workers: o.Health()}
			for _, wh := range h.Workers {
				if wh.Alive {
					h.Alive++
				}
			}
			h.Total = len(h.Workers)
			if rs, ok := f.handle(i).(*remoteShard); ok {
				load := rs.LoadSummary()
				h.Alive, h.Total = load.Alive, load.Workers
			}
			if h.Alive < h.Total {
				out.Status = "degraded"
			}
			out.Shards = append(out.Shards, h)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		var fed obs.SLOInput
		shards := make([]obs.SLOSummary, len(f.obsShards))
		for i, o := range f.obsShards {
			in := o.SLOInput()
			if rs, ok := f.handle(i).(*remoteShard); ok {
				in = obs.SLOInput{Counts: rs.Counters()}
			}
			shards[i] = in.Summary()
			fed.Add(in)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Federation obs.SLOSummary   `json:"federation"`
			Shards     []obs.SLOSummary `json:"shards"`
		}{fed.Summary(), shards})
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

// progressRegistry renders a remote shard's last Progress frame as a
// registry: the counts under their shard registry names, and its workers.
func progressRegistry(rs *remoteShard) *obs.Registry {
	reg := obs.NewRegistry()
	for k, n := range rs.Counters() {
		reg.Counter(obs.CountMetric[k]).Add(n)
	}
	load := rs.LoadSummary()
	reg.Gauge(obs.MetricWorkersAlive).Set(int64(load.Alive))
	reg.Gauge(obs.MetricWorkersTotal).Set(int64(load.Workers))
	return reg
}
