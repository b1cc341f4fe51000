package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Readiness reports whether the process is ready to take new work. The
// liveness and readiness probes are deliberately split: a draining
// server is still alive (scrapes and in-flight work must keep going) but
// must stop receiving traffic, so /healthz keeps answering 200 while
// /readyz flips to 503. A nil Readiness means always ready.
type Readiness func() (ready bool, detail string)

// Handler builds the telemetry HTTP mux over a set:
//
//	/metrics        Prometheus text exposition of the registry
//	/healthz        liveness probe ("ok")
//	/readyz         readiness probe ("ready", or 503 while draining)
//	/events         flight-recorder ring as JSONL, oldest first
//	/debug/pprof/*  the standard Go profiler endpoints
//
// ready backs /readyz; nil means always ready. It is exported
// separately from Serve so embedders with their own mux can mount it.
func Handler(s *Set, ready Readiness) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.Reg().WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.Reg().Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if ready != nil {
			if ok, detail := ready(); !ok {
				if detail == "" {
					detail = "not ready"
				}
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, detail)
				return
			}
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if d := s.Events().Dropped(); d > 0 {
			w.Header().Set("X-Events-Dropped", fmt.Sprint(d))
		}
		s.Events().WriteJSONL(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// HTTPServer is a running telemetry endpoint.
type HTTPServer struct {
	srv  *http.Server
	addr string
	done chan error

	closeOnce sync.Once
	closeErr  error
}

// Serve opens an HTTP endpoint on addr (e.g. "127.0.0.1:9090"; use
// port 0 to let the kernel pick) and serves handler — typically Handler
// or a mux wrapping it — in the background until Close.
func Serve(addr string, handler http.Handler) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	h := &HTTPServer{
		srv:  &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second},
		addr: ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { h.done <- h.srv.Serve(ln) }()
	return h, nil
}

// Addr returns the bound address.
func (h *HTTPServer) Addr() string { return h.addr }

// Close stops the endpoint (idempotent; safe on nil).
func (h *HTTPServer) Close() error {
	if h == nil {
		return nil
	}
	h.closeOnce.Do(func() {
		h.closeErr = h.srv.Close()
		<-h.done
	})
	return h.closeErr
}
