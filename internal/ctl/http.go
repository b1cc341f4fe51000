package ctl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"tensorkmc/internal/telemetry"
)

// maxDeckBytes bounds one submitted deck. Decks are small key/value
// text; anything larger is a mistake or an attack.
const maxDeckBytes = 1 << 20

// APIHandler mounts the control-plane API over the telemetry mux:
//
//	POST   /jobs             submit a deck (text body) → 201 + JobRecord
//	GET    /jobs             list all jobs
//	GET    /jobs/{id}        one job's record
//	DELETE /jobs/{id}        cancel (stop at the next segment boundary)
//	GET    /jobs/{id}/events SSE stream of the job's flight recorder
//	/metrics /healthz /readyz /events /debug/pprof/*  (telemetry)
//
// /readyz reports the plane's drain state, so a load balancer stops
// routing submissions the moment a drain begins while /healthz keeps
// confirming liveness.
func APIHandler(p *Plane) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", telemetry.Handler(p.Telemetry(), p.Ready))

	// The controller's /metrics is the cluster view: its own registry
	// plus every running job (job label). The more specific pattern
	// overrides the process-local /metrics the telemetry mux mounts above.
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		p.ClusterSnapshot().WritePrometheus(w)
	})

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxDeckBytes+1))
		if err != nil {
			writeAPIError(w, &HTTPError{Status: http.StatusBadRequest, Code: "read_failed", Detail: err.Error()})
			return
		}
		if len(body) > maxDeckBytes {
			writeAPIError(w, &HTTPError{Status: http.StatusRequestEntityTooLarge, Code: "deck_too_large",
				Detail: fmt.Sprintf("deck exceeds %d bytes", maxDeckBytes)})
			return
		}
		rec, err := p.Submit(string(body))
		if err != nil {
			writeAPIError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, rec)
	})

	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, p.List())
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		rec, err := p.Get(r.PathValue("id"))
		if err != nil {
			writeAPIError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, rec)
	})

	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		rec, err := p.Cancel(r.PathValue("id"))
		if err != nil {
			writeAPIError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, rec)
	})

	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		streamJobEvents(p, w, r)
	})

	return mux
}

// ClusterSnapshot assembles the cluster-level metric view: the
// controller's own registry plus every running job's private registry,
// job-labelled (per-job attribution of eval requests, cache traffic and
// phase time). Sorted after the merge, so the layout is deterministic
// whatever order the jobs were merged in. Fleet nodes are not folded
// in: each serves its own -telemetry endpoint for a scraper.
func (p *Plane) ClusterSnapshot() telemetry.Snapshot {
	cluster := p.set.Reg().Snapshot()

	type jobTele struct {
		id  string
		set *telemetry.Set
	}
	p.mu.Lock()
	running := make([]jobTele, 0, len(p.jobs))
	for id, j := range p.jobs {
		if j.tele != nil {
			running = append(running, jobTele{id, j.tele})
		}
	}
	p.mu.Unlock()
	for _, jt := range running {
		snap := jt.set.Reg().Snapshot()
		snap.AddLabel("job", jt.id)
		if err := cluster.Merge(snap); err != nil {
			p.set.Events().Record("metrics-merge", "job %s: %v", jt.id, err)
		}
	}
	cluster.Sort()
	return cluster
}

// writeJSON renders one API response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeAPIError maps a typed *HTTPError onto its status (with
// Retry-After on the load-shedding codes, so well-behaved clients back
// off instead of hammering a saturated controller) and anything else
// onto a 500.
func writeAPIError(w http.ResponseWriter, err error) {
	var he *HTTPError
	if !errors.As(err, &he) {
		he = &HTTPError{Status: http.StatusInternalServerError, Code: "internal", Detail: err.Error()}
	}
	if he.Status == http.StatusTooManyRequests || he.Status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, he.Status, he)
}

// streamJobEvents serves one job's flight recorder as Server-Sent
// Events: every journal entry (submissions, segment observables,
// preemptions, restores, terminal transitions) as a `data:` frame in Seq
// order, then a final `event: done` frame carrying the terminal record.
// The stream polls the bounded ring; a slow consumer can miss overwritten
// events but the Seq numbers make the gap visible.
func streamJobEvents(p *Plane, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	jr := p.journalFor(id)
	if jr == nil {
		writeAPIError(w, &HTTPError{Status: http.StatusNotFound, Code: "unknown_job", Detail: id})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeAPIError(w, &HTTPError{Status: http.StatusInternalServerError, Code: "no_flush",
			Detail: "response writer does not support streaming"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ticker := time.NewTicker(50 * time.Millisecond)
	defer ticker.Stop()
	var last uint64
	for {
		for _, ev := range jr.Events() {
			if ev.Seq <= last {
				continue
			}
			last = ev.Seq
			b, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.Seq, b)
		}
		flusher.Flush()

		rec, err := p.Get(id)
		if err != nil {
			return // job vanished (should not happen; records are permanent)
		}
		if rec.State.Terminal() {
			b, _ := json.Marshal(rec)
			fmt.Fprintf(w, "event: done\ndata: %s\n\n", b)
			flusher.Flush()
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}
