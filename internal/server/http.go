package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"dyflow/internal/exp"
	"dyflow/internal/obs"
)

// APIError is an error with an HTTP status.
type APIError struct {
	Code       int
	Msg        string
	RetryAfter int // seconds, optional
}

func (e *APIError) Error() string { return e.Msg }

// httpError writes err as an HTTP response: an *APIError keeps its status,
// anything else is a 500.
func httpError(w http.ResponseWriter, err error) {
	var api *APIError
	if !errors.As(err, &api) {
		api = &APIError{Code: http.StatusInternalServerError, Msg: err.Error()}
	}
	if api.RetryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprint(api.RetryAfter))
	}
	http.Error(w, api.Msg, api.Code)
}

// jsonBufs recycles writeJSON's encode buffers across requests.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes first and writes with an explicit Content-Length so
// failures are never silent half-truths: an encode error surfaces as a
// clean 500 (nothing of the 2xx was written yet), and a connection torn
// mid-body leaves the client a short read against the advertised length —
// io.ErrUnexpectedEOF, which retrying clients treat as transient. The
// fleet Worker and faultnet's truncation mode both rely on this. The body
// is compact JSON ending in a newline; a reader who wants it indented
// pipes it through `jq .`.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		s.logf("server: encode json response: %v", err)
		http.Error(w, "encode response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	s.writeBody(w, code, buf.Bytes())
}

// writeBody writes an encoded JSON body with its Content-Length.
func (s *Server) writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	if _, err := w.Write(body); err != nil {
		s.logf("server: write json response: %v", err)
	}
}

// Listing pagination bounds: the response is never the whole table —
// an omitted limit serves defaultListLimit runs and anything above
// maxListLimit is clamped to it (both documented in docs/SERVICE.md).
const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

// parseRunQuery decodes GET /v1/runs' filter parameters: tenant,
// scenario, state, since/until (RFC 3339), limit, page_token.
func parseRunQuery(r *http.Request) (RunQuery, error) {
	qs := r.URL.Query()
	q := RunQuery{
		Tenant:    qs.Get("tenant"),
		Scenario:  qs.Get("scenario"),
		State:     qs.Get("state"),
		PageToken: qs.Get("page_token"),
		Limit:     defaultListLimit,
	}
	if v := qs.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return RunQuery{}, &APIError{Code: http.StatusBadRequest, Msg: "limit must be a positive integer"}
		}
		q.Limit = n
	}
	if q.Limit > maxListLimit {
		q.Limit = maxListLimit
	}
	for _, tp := range []struct {
		name string
		dst  *time.Time
	}{{"since", &q.Since}, {"until", &q.Until}} {
		if v := qs.Get(tp.name); v != "" {
			t, err := time.Parse(time.RFC3339, v)
			if err != nil {
				return RunQuery{}, &APIError{Code: http.StatusBadRequest,
					Msg: fmt.Sprintf("%s must be RFC 3339 (e.g. 2026-01-02T15:04:05Z): %v", tp.name, err)}
			}
			*tp.dst = t
		}
	}
	return q, nil
}

// SubmitRequest is the POST /v1/runs body: a tenant plus the job fields.
type SubmitRequest struct {
	Tenant string `json:"tenant"`
	exp.Job
}

// Handler returns the service's HTTP API:
//
//	POST /v1/runs                      submit  {tenant, scenario, machine, seed, xml}
//	GET  /v1/runs                      list runs; filters tenant, scenario, state,
//	                                   since, until (RFC 3339), limit, page_token
//	GET  /v1/runs/{id}                 one run's status
//	GET  /v1/runs/{id}/events          live event stream (SSE, Last-Event-ID resume)
//	POST /v1/runs/{id}/cancel          cancel
//	GET  /v1/runs/{id}/artifacts/{name}  report | gantt | perfetto | metrics
//	GET  /v1/analytics                 cross-campaign aggregates over the full run
//	                                   history; ?trend_bucket=1h&trend_buckets=24
//	                                   adds time-bucketed submission trends
//	GET  /metrics, /metrics.json       coordinator families + worker-labeled fleet families
//	GET  /healthz                      liveness
//
// plus the fleet worker API (worker_api.go): /v1/workers/*, /v1/blobs/*,
// GET /v1/fleet, and GET /v1/fleet/metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, name string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			s.met.httpReqs.With(name).Inc()
			h(w, r)
		})
	}
	route("POST /v1/runs", "submit", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, &APIError{Code: http.StatusBadRequest, Msg: "bad submit body: " + err.Error()})
			return
		}
		st, err := s.Submit(req.Tenant, req.Job)
		if err != nil {
			httpError(w, err)
			return
		}
		s.writeJSON(w, http.StatusAccepted, st)
	})
	route("GET /v1/runs", "list", func(w http.ResponseWriter, r *http.Request) {
		q, err := parseRunQuery(r)
		if err != nil {
			httpError(w, err)
			return
		}
		s.serveRunList(w, q)
	})
	route("GET /v1/runs/{id}", "status", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.RunStatus(r.PathValue("id"))
		if err != nil {
			httpError(w, err)
			return
		}
		s.writeJSON(w, http.StatusOK, st)
	})
	route("POST /v1/runs/{id}/cancel", "cancel", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			httpError(w, err)
			return
		}
		s.writeJSON(w, http.StatusOK, st)
	})
	route("GET /v1/runs/{id}/artifacts/{name}", "artifact", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		blob, err := s.Artifact(r.PathValue("id"), name)
		if err != nil {
			httpError(w, err)
			return
		}
		ct := "application/json"
		if name == exp.ArtifactGantt {
			ct = "text/plain; charset=utf-8"
		}
		w.Header().Set("Content-Type", ct)
		w.Write(blob)
	})
	route("GET /v1/runs/{id}/events", "events", s.handleRunEvents)
	route("GET /v1/analytics", "analytics", func(w http.ResponseWriter, r *http.Request) {
		var bucket time.Duration
		buckets := 0
		if v := r.URL.Query().Get("trend_bucket"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				httpError(w, &APIError{Code: http.StatusBadRequest, Msg: "bad trend_bucket (want a positive Go duration, e.g. 1h)"})
				return
			}
			bucket = d
		}
		if v := r.URL.Query().Get("trend_buckets"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				httpError(w, &APIError{Code: http.StatusBadRequest, Msg: "bad trend_buckets (want a positive integer)"})
				return
			}
			buckets = n
			if bucket == 0 {
				bucket = time.Hour
			}
		}
		s.writeJSON(w, http.StatusOK, s.AnalyticsWithTrends(bucket, buckets))
	})
	route("GET /healthz", "healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.fleetRoutes(route)
	// One scrape sees the whole fleet: the coordinator's own families
	// plus every worker's pushed snapshot under a `worker` label.
	route("GET /metrics", "metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.mergedSnapshot().WritePrometheus(w); err != nil {
			s.logf("server: write /metrics: %v", err)
		}
	})
	route("GET /metrics.json", "metrics_json", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, s.mergedSnapshot())
	})
	return mux
}

// mergedSnapshot is the fleet-wide metrics view: the coordinator's
// registry merged with each worker's last pushed registry snapshot,
// worker families tagged worker="<id>".
func (s *Server) mergedSnapshot() obs.Snapshot {
	parts := []obs.Snapshot{s.reg.Snapshot()}
	workers := s.fleet.MetricsSnapshots()
	ids := make([]string, 0, len(workers))
	for id := range workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		parts = append(parts, workers[id].WithLabel("worker", id))
	}
	return obs.MergeSnapshots(parts...)
}
