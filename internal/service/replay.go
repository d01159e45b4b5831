package service

import (
	"fmt"

	"github.com/nice-go/nice/internal/core"
)

// ReplayResult is what re-executing a trace artifact produced.
type ReplayResult struct {
	// Reproduced is true when the replay violated the artifact's
	// property and the reproduced violation's fingerprint matches the
	// recorded one.
	Reproduced bool
	// Property and Fingerprint describe the replayed violation (empty
	// when the trace replayed clean).
	Property    string
	Fingerprint string
	// Expected echoes the artifact's recorded fingerprint.
	Expected string
}

// ReplayArtifact rebuilds the artifact's scenario from its recorded
// request, decodes the wire trace and re-executes it transition by
// transition with property observers attached — the paper's
// checkpoint-free replay (§6) applied to a persisted violation. The
// trace must reproduce the recorded violation (same property, same
// property+trace fingerprint) for Reproduced to hold.
func ReplayArtifact(ta *TraceArtifact) (*ReplayResult, error) {
	cfg, err := buildConfig(&ta.Request)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	trace, err := DecodeTrace(ta.Violation.Trace)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	_, v := core.NewChecker(cfg).ReplayWithProperties(trace)
	res := &ReplayResult{Expected: ta.Violation.Fingerprint}
	if v != nil {
		res.Property = v.Property
		res.Fingerprint = ViolationFingerprint(v)
		res.Reproduced = res.Fingerprint == res.Expected
	}
	return res, nil
}
