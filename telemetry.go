package nice

import (
	"net/http"

	"github.com/nice-go/nice/internal/telemetry"
)

// Deep telemetry for the search engines (internal/telemetry), re-exported
// so WithTelemetry and Campaign.Telemetry can be used without importing
// internal packages.
type (
	// Telemetry is a zero-dependency metrics registry: atomic counters,
	// gauges and fixed-bucket histograms plus a bounded structured
	// trace-event stream. Attach one with WithTelemetry (or
	// Campaign.Telemetry) and the engines publish their hot-path signals
	// under per-engine scopes; leave it nil and every instrumentation
	// site stays on its single-branch disabled fast path.
	Telemetry = telemetry.Registry
	// TelemetrySnapshot is a point-in-time copy of a registry — the JSON
	// document served at /metrics, written by `nice -metrics-out`, and
	// read back by LoadTelemetrySnapshot.
	TelemetrySnapshot = telemetry.Snapshot
	// TraceEvent is one entry of the structured trace stream (search
	// start/stop, expansion batches, violations, cache evictions, budget
	// drawdowns).
	TraceEvent = telemetry.TraceEvent
	// TraceKind tags a TraceEvent.
	TraceKind = telemetry.TraceKind
)

// The structured trace-event kinds.
const (
	TraceSearchStart = telemetry.TraceSearchStart
	TraceSearchStop  = telemetry.TraceSearchStop
	TraceExpandBatch = telemetry.TraceExpandBatch
	TraceViolation   = telemetry.TraceViolation
	TraceCacheEvict  = telemetry.TraceCacheEvict
	TraceBudget      = telemetry.TraceBudget
)

// NewTelemetry builds an enabled metrics registry for WithTelemetry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// LoadTelemetrySnapshot reads and validates a snapshot written by
// (*Telemetry).WriteFile or `nice -metrics-out`.
func LoadTelemetrySnapshot(path string) (*TelemetrySnapshot, error) {
	return telemetry.LoadSnapshot(path)
}

// TelemetryMux serves live introspection over a registry: /metrics and
// /trace as JSON, plus /debug/vars (expvar) and /debug/pprof. The
// `-metrics-addr` flag of cmd/nice mounts it on a listener; embedders
// can mount it anywhere.
func TelemetryMux(reg *Telemetry) *http.ServeMux { return telemetry.NewMux(reg) }
