package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/nice-go/nice/internal/telemetry"
	"github.com/nice-go/nice/scenarios"
)

// TenantHeader names the submitting tenant; absent means "default".
const TenantHeader = "X-Nice-Tenant"

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs            submit a JobRequest (201 + JobStatus)
//	GET    /v1/jobs            list all jobs
//	GET    /v1/jobs/{id}       one job's status
//	GET    /v1/jobs/{id}/stream  live result stream (NDJSON, or SSE
//	                           with Accept: text/event-stream)
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	GET    /v1/artifacts/{id}  fetch a content-addressed artifact
//	GET    /v1/scenarios       list registry scenarios
//	GET    /v1/healthz         liveness
//
// plus the telemetry mux (/metrics, /trace, /debug/*).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/artifacts/{id}", s.handleArtifact)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.Handle("/", telemetry.NewMux(s.reg))
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeJobRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	j, err := s.Submit(r.Header.Get(TenantHeader), req)
	if err != nil {
		var se *submitError
		if errors.As(err, &se) {
			if se.status == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			writeError(w, se.status, se.msg)
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, j.status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.document())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if !j.requestCancel() {
		writeError(w, http.StatusConflict, "job already finished")
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// streamWriteTimeout is how long one line of a result stream may take
// to reach its client. A watcher that has stopped reading is cut off
// after it, so it cannot hold a finished job's history forever.
var streamWriteTimeout = 30 * time.Second

// handleStream replays the job's event history from the start and
// follows it live until the job's terminal done event, the client
// disconnecting or stalling, or server shutdown completing the job; a
// sealed job's stream is rebuilt from its artifacts. Events are
// NDJSON lines by default; Accept: text/event-stream switches to SSE
// frames (event: <type> / data: <json>).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	s.tel.streamClients.Set(s.streamClients.Add(1))
	defer func() { s.tel.streamClients.Set(s.streamClients.Add(-1)) }()

	rc := http.NewResponseController(w)
	write := func(ln line) error {
		rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		if !sse {
			_, err := w.Write(ln.data)
			return err
		}
		_, err := fmt.Fprintf(w, "event: %s\ndata: %s\n", ln.typ, ln.data)
		return err
	}
	sub := j.subscribe()
	if sub == nil {
		for _, ev := range j.sealedEvents() {
			if write(marshalLine(&ev)) != nil {
				return
			}
		}
		return
	}
	defer j.unsubscribe(sub)
	cursor := 0
	for {
		lines := j.linesFrom(cursor)
		for _, ln := range lines {
			if write(ln) != nil || ln.typ == "done" {
				return
			}
		}
		cursor += len(lines)
		flusher.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-sub.notify:
		}
	}
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusNotFound, "artifact persistence disabled")
		return
	}
	data, err := s.store.get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "no such artifact")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name     string `json:"name"`
		Summary  string `json:"summary,omitempty"`
		App      string `json:"app,omitempty"`
		Expected string `json:"expected_property,omitempty"`
	}
	var out []entry
	for _, sc := range scenarios.All() {
		out = append(out, entry{Name: sc.Name, Summary: sc.Summary, App: sc.App, Expected: sc.ExpectedProperty})
	}
	writeJSON(w, http.StatusOK, map[string]any{"scenarios": out})
}
