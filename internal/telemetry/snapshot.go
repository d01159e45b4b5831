package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// SnapshotSchema is the metrics-JSON format version (-metrics-out /
// LoadSnapshot).
const SnapshotSchema = 1

// HistogramSnapshot is one histogram's serialized state: Counts has one
// bucket per bound plus a trailing overflow bucket.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
}

// Snapshot is a registry's serializable state: the JSON written by
// `nice -metrics-out`, served at /metrics, and read back by
// LoadSnapshot.
type Snapshot struct {
	Schema     int                          `json:"schema"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Trace      []TraceEvent                 `json:"trace,omitempty"`
}

// Snapshot captures the registry's current state, trace included.
// Returns an empty-but-valid snapshot on a nil registry.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Schema:     SnapshotSchema,
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.snapshot()
	}
	s.Trace = r.Trace()
	return s
}

// WriteJSON writes the registry's snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteFile writes the snapshot JSON to a file.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Counter reads a snapshotted counter by full name (0 when absent).
func (s *Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge reads a snapshotted gauge by full name (0 when absent).
func (s *Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// HistogramsWithSuffix returns the names of histograms whose name ends
// in suffix — e.g. ".depth" finds every engine scope's depth series.
func (s *Snapshot) HistogramsWithSuffix(suffix string) []string {
	var names []string
	for name := range s.Histograms {
		if strings.HasSuffix(name, suffix) {
			names = append(names, name)
		}
	}
	return names
}

// Validate checks structural well-formedness: the schema version, and
// per-histogram bucket/bound consistency (counts = bounds+1, ascending
// bounds, bucket totals not exceeding the observation count — lock-free
// capture may leave the buckets slightly behind).
func (s *Snapshot) Validate() error {
	if s.Schema != SnapshotSchema {
		return fmt.Errorf("telemetry: snapshot schema %d, want %d", s.Schema, SnapshotSchema)
	}
	for name, h := range s.Histograms {
		if len(h.Counts) != len(h.Bounds)+1 {
			return fmt.Errorf("telemetry: histogram %q has %d buckets for %d bounds (want bounds+1)",
				name, len(h.Counts), len(h.Bounds))
		}
		var total int64
		for _, c := range h.Counts {
			if c < 0 {
				return fmt.Errorf("telemetry: histogram %q has a negative bucket", name)
			}
			total += c
		}
		if total > h.Count {
			return fmt.Errorf("telemetry: histogram %q buckets sum to %d > count %d", name, total, h.Count)
		}
		for i := 1; i < len(h.Bounds); i++ {
			if h.Bounds[i] <= h.Bounds[i-1] {
				return fmt.Errorf("telemetry: histogram %q bounds not ascending", name)
			}
		}
	}
	return nil
}

// LoadSnapshot reads and validates a snapshot JSON file.
func LoadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("telemetry: parsing %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
