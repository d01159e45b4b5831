package nice

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"

	"github.com/nice-go/nice/internal/service"
)

// Checking-as-a-service (internal/service), re-exported so embedders
// can run the NICE server in-process without importing internal
// packages. `nice serve` is a thin wrapper over Serve; `nice -server`,
// `nice watch` and `nice replay` are its clients.
type (
	// Service is the long-running checking server: a bounded worker
	// pool over an HTTP job queue with per-tenant drawdown budgets,
	// NDJSON/SSE result streams and content-addressed trace artifacts.
	Service = service.Server
	// ServiceOptions configures NewService/Serve.
	ServiceOptions = service.Options
	// JobRequest is one search request (a named registry scenario or
	// an inline scenarios.WireSpec plus search knobs), the same for
	// every door: POST /v1/jobs, RunRequest and the `nice` flags.
	JobRequest = service.JobRequest
	// JobStatus is a submitted job's status document.
	JobStatus = service.JobStatus
	// JobResult is a finished job's report including artifact IDs.
	JobResult = service.JobResult
	// ServiceEvent is one line of a job's result stream.
	ServiceEvent = service.Event
	// TraceArtifact is a persisted, replayable violation trace.
	TraceArtifact = service.TraceArtifact
	// ReplayResult reports whether a trace artifact reproduced its
	// recorded violation.
	ReplayResult = service.ReplayResult
)

// ServiceTenantHeader names the submitting tenant on HTTP requests.
const ServiceTenantHeader = service.TenantHeader

// NewService builds and starts a checking service (workers run until
// Shutdown). Mount its Handler on any HTTP server, or use Serve.
func NewService(opts ServiceOptions) (*Service, error) { return service.New(opts) }

// DecodeTraceArtifact parses a persisted trace artifact document.
func DecodeTraceArtifact(data []byte) (*TraceArtifact, error) {
	return service.DecodeTraceArtifact(data)
}

// ReplayArtifact re-executes a persisted violation trace against a
// freshly built scenario and reports whether it reproduces the
// recorded violation fingerprint.
func ReplayArtifact(ta *TraceArtifact) (*ReplayResult, error) {
	return service.ReplayArtifact(ta)
}

// Serve runs a checking service on addr until ctx is canceled, then
// shuts down gracefully: in-flight searches are canceled (streams
// still receive their Final snapshots and done events), the queue
// drains, and the HTTP listener closes. ready, if non-nil, receives
// the bound address once listening (useful with addr ":0").
func Serve(ctx context.Context, addr string, opts ServiceOptions, ready chan<- string) error {
	s, err := NewService(opts)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		// The service started workers; stop them before reporting.
		sctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Shutdown(sctx)
		return err
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Stop the checking service first so every stream terminates with
	// its done event, then close the HTTP side.
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	serr := s.Shutdown(sctx)
	herr := srv.Shutdown(sctx)
	if serr != nil {
		return serr
	}
	if herr != nil && !errors.Is(herr, http.ErrServerClosed) {
		return herr
	}
	return nil
}
