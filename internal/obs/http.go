package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// Handler returns an HTTP mux exposing the sink:
//
//	/metrics        expvar-style flat JSON of every metric
//	/metrics.txt    the WriteTable plain-text dump
//	/metrics.csv    the WriteCSV dump
//	/traces         the slowest retained traces as rendered span trees
//	/debug/pprof/*  the standard runtime profiles
//
// A nil sink still returns a working mux whose metric endpoints serve
// empty documents, so wiring `-http` stays unconditional.
func (s *Sink) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Registry().jsonSnapshot())
	})
	mux.HandleFunc("/metrics.txt", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = s.Registry().WriteTable(w)
	})
	mux.HandleFunc("/metrics.csv", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/csv")
		_ = s.Registry().WriteCSV(w)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, t := range s.SlowestTraces() {
			_ = t.RenderTree(w)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// jsonSnapshot flattens the registry into an expvar-style map:
// counters and gauges map to numbers, histograms to summary objects,
// families to per-label maps.
func (r *Registry) jsonSnapshot() map[string]any {
	out := map[string]any{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.cs {
		out[name] = c.Value()
	}
	for name, g := range r.gs {
		out[name] = g.Value()
	}
	for name, h := range r.hs {
		out[name] = histJSON(h)
	}
	for name, f := range r.cfams {
		m := map[string]uint64{}
		for i, c := range f.list() {
			m[f.label+strconv.Itoa(i)] = c.Value()
		}
		out[name] = m
	}
	for name, f := range r.gfams {
		m := map[string]int64{}
		for i, g := range f.list() {
			m[f.label+strconv.Itoa(i)] = g.Value()
		}
		out[name] = m
	}
	for name, f := range r.hfams {
		m := map[string]any{}
		for i, h := range f.list() {
			m[f.label+strconv.Itoa(i)] = histJSON(h)
		}
		out[name] = m
	}
	return out
}

func histJSON(h *Histogram) map[string]any {
	return map[string]any{
		"count":  h.Count(),
		"sum_ns": int64(h.Sum()),
		"p50_ns": int64(h.Percentile(50)),
		"p95_ns": int64(h.Percentile(95)),
		"p99_ns": int64(h.Percentile(99)),
		"max_ns": int64(h.Max()),
	}
}
