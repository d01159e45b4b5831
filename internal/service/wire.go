package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

// WireVersion is the service's wire-schema version: the /v1/ URL
// prefix, the JobRequest/Event shapes and the artifact layout all
// version together.
const WireVersion = 1

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"     // search finished (violations or clean)
	StateCanceled = "canceled" // DELETE, shutdown, or queue drain
	StateError    = "error"    // scenario failed to build or run
)

// JobStatus is the GET /v1/jobs/{id} document.
type JobStatus struct {
	ID      string     `json:"id"`
	Tenant  string     `json:"tenant"`
	Request JobRequest `json:"request"`
	State   string     `json:"state"`
	Error   string     `json:"error,omitempty"`

	QueuedAt  time.Time  `json:"queued_at"`
	StartedAt *time.Time `json:"started_at,omitempty"`
	EndedAt   *time.Time `json:"ended_at,omitempty"`

	Result *JobResult `json:"result,omitempty"`
}

// JobResult is a finished job's report: the Report counters plus the
// persisted artifact references. The violations themselves are the
// job's violation events, and each one's trace artifact.
type JobResult struct {
	Transitions  int64  `json:"transitions"`
	UniqueStates int64  `json:"unique_states"`
	SERuns       int64  `json:"se_runs"`
	Complete     bool   `json:"complete"`
	StopReason   string `json:"stop_reason,omitempty"`
	// Starved marks a job whose binding budget was the tenant's shared
	// drawdown rather than its own limits (Campaign's budget-starved
	// outcome at the service layer).
	Starved   bool  `json:"starved,omitempty"`
	ElapsedMS int64 `json:"elapsed_ms"`

	// TraceArtifacts are the content-addressed IDs of the persisted
	// violation traces, in the report's order (by property, then
	// message); a violation any job found before with the same trace
	// has the same ID.
	// TelemetryArtifact is the job's telemetry snapshot: the registry's
	// series when the job ended and the trace events from its StartedAt
	// on. Empty when the server runs without an artifact directory.
	TraceArtifacts    []string `json:"trace_artifacts,omitempty"`
	TelemetryArtifact string   `json:"telemetry_artifact,omitempty"`
}

// WireViolation is a violation with its replayable trace encoded for
// the wire and a fingerprint (property + 64-bit trace hash) that
// replays can be checked against.
type WireViolation struct {
	Property    string           `json:"property"`
	Message     string           `json:"message"`
	Fingerprint string           `json:"fingerprint"`
	Quiescence  bool             `json:"quiescence,omitempty"`
	Trace       []WireTransition `json:"trace"`
}

// WireTransition is the JSON encoding of a core.Transition — the
// self-contained replayable fields only (scheduling metadata like the
// UNUSUAL sequence number is deliberately not identity and not
// encoded).
type WireTransition struct {
	Kind string `json:"kind"`

	Host int `json:"host,omitempty"`
	Sw   int `json:"sw,omitempty"`
	Port int `json:"port,omitempty"`

	Hdr   *openflow.Header     `json:"hdr,omitempty"`
	Stats []openflow.PortStats `json:"stats,omitempty"`

	MoveToSw   int `json:"move_to_sw,omitempty"`
	MoveToPort int `json:"move_to_port,omitempty"`

	Env string `json:"env,omitempty"`
}

// ViolationFingerprint renders the stable identity of a violating
// execution: the property name plus the hash of the trace's rendering,
// core.TraceFingerprint. The engines dedup on property and error text.
func ViolationFingerprint(v *core.Violation) string {
	return fmt.Sprintf("%s:%016x", v.Property, core.TraceFingerprint(v.Trace))
}

// EncodeViolation converts an engine violation to its wire form.
func EncodeViolation(v *core.Violation) WireViolation {
	wv := WireViolation{
		Property:    v.Property,
		Message:     fmt.Sprint(v.Err),
		Fingerprint: ViolationFingerprint(v),
		Quiescence:  v.Quiescence,
		Trace:       make([]WireTransition, len(v.Trace)),
	}
	for i, t := range v.Trace {
		wv.Trace[i] = encodeTransition(t)
	}
	return wv
}

func encodeTransition(t core.Transition) WireTransition {
	wt := WireTransition{
		Kind: t.Kind.String(),
		Host: int(t.Host),
		Sw:   int(t.Sw),
		Port: int(t.Port),
		Env:  t.Env,
	}
	if t.Hdr != (openflow.Header{}) {
		hdr := t.Hdr
		wt.Hdr = &hdr
	}
	if t.Stats != nil {
		wt.Stats = append([]openflow.PortStats(nil), t.Stats...)
	}
	if t.MoveTo != (topo.PortKey{}) {
		wt.MoveToSw = int(t.MoveTo.Sw)
		wt.MoveToPort = int(t.MoveTo.Port)
	}
	return wt
}

// DecodeTrace converts a wire trace back to engine transitions,
// rejecting unknown transition kinds by position.
func DecodeTrace(wire []WireTransition) ([]core.Transition, error) {
	out := make([]core.Transition, len(wire))
	for i, wt := range wire {
		kind, ok := core.ParseTransitionKind(wt.Kind)
		if !ok {
			return nil, fmt.Errorf("trace[%d]: unknown transition kind %q", i, wt.Kind)
		}
		t := core.Transition{
			Kind: kind,
			Host: openflow.HostID(wt.Host),
			Sw:   openflow.SwitchID(wt.Sw),
			Port: openflow.PortID(wt.Port),
			Env:  wt.Env,
			MoveTo: topo.PortKey{
				Sw:   openflow.SwitchID(wt.MoveToSw),
				Port: openflow.PortID(wt.MoveToPort),
			},
		}
		if wt.Hdr != nil {
			t.Hdr = *wt.Hdr
		}
		if wt.Stats != nil {
			t.Stats = append([]openflow.PortStats(nil), wt.Stats...)
		}
		out[i] = t
	}
	return out, nil
}

// Event is one line of a job's result stream (NDJSON) or one SSE data
// payload. Seq is the event's position in the stream: the same for
// every client of an unsealed job, so a reconnecting one can dedup on
// it, and counted afresh in the stream rebuilt for a sealed job. Only
// that one has error events: they stand for what could not be re-read.
type Event struct {
	Type string `json:"type"` // "status" | "violation" | "progress" | "done" | "error"
	Job  string `json:"job"`
	Seq  int    `json:"seq"`

	State     string         `json:"state,omitempty"`     // status events
	Violation *WireViolation `json:"violation,omitempty"` // violation events
	Progress  *WireProgress  `json:"progress,omitempty"`  // progress events
	Result    *JobResult     `json:"result,omitempty"`    // the final done event
	Error     string         `json:"error,omitempty"`     // error events
}

// WireProgress is core.Progress on the wire.
type WireProgress struct {
	Strategy      string  `json:"strategy,omitempty"`
	ElapsedMS     int64   `json:"elapsed_ms"`
	Transitions   int64   `json:"transitions"`
	UniqueStates  int64   `json:"unique_states"`
	Revisits      int64   `json:"revisits,omitempty"`
	SERuns        int64   `json:"se_runs,omitempty"`
	Frontier      int64   `json:"frontier,omitempty"`
	Depth         int     `json:"depth,omitempty"`
	StatesPerSec  float64 `json:"states_per_sec,omitempty"`
	PeakHeapInUse uint64  `json:"peak_heap_in_use,omitempty"`
	CacheHitRate  float64 `json:"cache_hit_rate,omitempty"`
	Final         bool    `json:"final,omitempty"`
}

func encodeProgress(p core.Progress) *WireProgress {
	return &WireProgress{
		Strategy:      p.Strategy,
		ElapsedMS:     p.Elapsed.Milliseconds(),
		Transitions:   p.Transitions,
		UniqueStates:  p.UniqueStates,
		Revisits:      p.Revisits,
		SERuns:        p.SERuns,
		Frontier:      p.Frontier,
		Depth:         p.Depth,
		StatesPerSec:  p.StatesPerSec,
		PeakHeapInUse: p.PeakHeapInUse,
		CacheHitRate:  p.CacheHitRate,
		Final:         p.Final,
	}
}

// TraceArtifact is the persisted, replayable form of one violation:
// the original request (so the scenario rebuilds identically) plus the
// wire-encoded trace. ReplayArtifact re-executes it. The server writes
// neither Job nor Tenant, so every job that finds the same violation
// shares one document; older documents that carry them still decode.
type TraceArtifact struct {
	Version   int           `json:"version"`
	Job       string        `json:"job,omitempty"`
	Tenant    string        `json:"tenant,omitempty"`
	Request   JobRequest    `json:"request"`
	Violation WireViolation `json:"violation"`
}

// DecodeTraceArtifact parses a persisted trace artifact.
func DecodeTraceArtifact(data []byte) (*TraceArtifact, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var ta TraceArtifact
	if err := dec.Decode(&ta); err != nil {
		return nil, fmt.Errorf("trace artifact: %w", err)
	}
	if ta.Version != WireVersion {
		return nil, fmt.Errorf("trace artifact: unsupported version %d", ta.Version)
	}
	if err := ta.Request.Validate(); err != nil {
		return nil, err
	}
	return &ta, nil
}
