package obs

import "net/http"

// MetricsHandler serves the registry in the Prometheus text exposition
// format — the /metrics endpoint of `dyflow-exp serve`.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// JSONHandler serves the registry's JSON document — the /metrics.json
// endpoint of `dyflow-exp serve`. A registry that cannot be encoded (a NaN
// gauge) is a 500 with the error's text.
func JSONHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		doc, err := r.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(doc)
	})
}
