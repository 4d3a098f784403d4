package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"tpuising/internal/service/encode"
)

// Handler returns the server's REST API:
//
//	POST   /v1/jobs             submit a JobSpec; 200 with a done (cached)
//	                            job, 202 with a queued one
//	GET    /v1/jobs             list job statuses
//	GET    /v1/jobs/{id}        one job's status
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /v1/jobs/{id}/result the encode.Result (202 + status until done)
//	GET    /v1/jobs/{id}/stream NDJSON encode.Sample lines while the job runs
//	GET    /v1/jobs/{id}/trace  the job's lifecycle timeline (JobTrace)
//	GET    /v1/stats            server counters (JSON)
//	GET    /metrics             counters, gauges and stage-latency histograms
//	                            in Prometheus text format
//
// Submissions may carry an X-Client-ID header: it fills JobSpec.Client when
// the spec leaves it empty, keying the per-client quotas. A submission over
// quota answers 429; a status poll for a job evicted by the history
// retention answers 410 (Gone, "expired") where an ID that never existed
// answers 404.
//
// cmd/isingd serves it over TCP; tests and examples mount it on
// net/http/httptest servers.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// apiError is the JSON error body of every non-2xx response.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad job spec: %w", err))
		return
	}
	if spec.Client == "" {
		spec.Client = r.Header.Get("X-Client-ID")
	}
	j, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrQuotaExceeded):
		writeError(w, http.StatusTooManyRequests, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st := j.Status()
	if st.State == StateDone {
		writeJSON(w, http.StatusOK, st) // cache hit: the result is already here
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

// getJob resolves the {id} path value, writing the error itself: 410 (Gone)
// for a job the history retention evicted — the client should resubmit the
// spec for a cache hit, not retry the poll — 410 with the distinct
// corruption message for a job whose checkpoint was quarantined at startup
// (resubmit to recompute; the ID itself is lost), and 404 for an ID this
// server never issued.
func (s *Server) getJob(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, err := s.Get(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrJobExpired) || errors.Is(err, ErrJobCorrupt):
		writeError(w, http.StatusGone, err)
		return nil, false
	case err != nil:
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s", ErrUnknownJob, r.PathValue("id")))
		return nil, false
	}
	return j, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.getJob(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.getJob(w, r)
	if !ok {
		return
	}
	j, err := s.Cancel(j.ID())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.getJob(w, r)
	if !ok {
		return
	}
	st := j.Status()
	switch st.State {
	case StateDone:
		writeJSON(w, http.StatusOK, st.Result)
	case StateFailed:
		writeError(w, http.StatusInternalServerError, errors.New(st.Error))
	case StateCanceled:
		writeError(w, http.StatusConflict, fmt.Errorf("service: job %s was canceled", st.ID))
	default:
		writeJSON(w, http.StatusAccepted, st) // not done yet: poll again
	}
}

// handleStream writes the job's samples as NDJSON while they arrive: first
// the retained history, then live samples until the job ends or the client
// goes away. The response is flushed line by line, so a client reads each
// observation as the chain produces it.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.getJob(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	sent := 0
	for {
		// Every iteration is one subscriber wakeup; the counter feeds the
		// stats endpoint so load tests can measure wakeups per sweep. With
		// watch firing only on sample appends and terminal transitions, the
		// count scales with samples written, not sweeps run.
		s.streamWakeups.Add(1)
		samples, dropped, terminal, updated := j.watch()
		// A wakeup with new samples is one write batch: encode the lines and
		// flush them, observing the whole batch (encode through flush) in the
		// stream-write histogram. Empty wakeups observe nothing.
		batch := sent < len(samples)
		start := s.now()
		for ; sent < len(samples); sent++ {
			if err := encode.WriteLine(w, samples[sent].wire(j.ID())); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if batch {
			s.streamWriteH.Observe(s.now().Sub(start))
		}
		if terminal {
			if dropped > 0 {
				// The history bound was exceeded: say so instead of letting
				// the stream end looking complete.
				_ = encode.WriteLine(w, encode.Sample{Job: j.ID(), Truncated: dropped})
			}
			return
		}
		select {
		case <-updated:
		case <-s.closing:
			return
		case <-r.Context().Done():
			return
		}
	}
}

// handleTrace serves GET /v1/jobs/{id}/trace: the job's recorded lifecycle
// timeline with derived stage durations. The trace shares the job's
// retention: once the history evicts the job, its trace answers 410 with it.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.getJob(w, r); ok {
		writeJSON(w, http.StatusOK, j.Trace())
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
