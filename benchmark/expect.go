package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"time"

	nice "github.com/nice-go/nice"
)

//go:embed expected.json
var expectedJSON []byte

// pin is the verdict one search must reach. States and Transitions are
// pinned only where they are facts of the model rather than of the
// search: a complete, unreduced, sequential search visits exactly the
// model's state space, whatever order it goes in. Parallel and concolic
// runs drift by a fraction of a percent run to run, and under DPOR or
// first-violation stops the counts are the metric itself — those pin
// the violation set (and the packet classes) only.
type pin struct {
	States      int64 `json:"states,omitempty"`
	Transitions int64 `json:"transitions,omitempty"`
	Violations  int   `json:"violations"`
	// ViolationSet is the sha256 of the sorted "property|error" lines.
	ViolationSet string `json:"violation_set"`
	// Properties counts the violations by property, for the reader.
	Properties map[string]int `json:"properties,omitempty"`
	// Classes pins the packet classes a cold search discovers.
	Classes int64 `json:"classes,omitempty"`
}

// pinFile is expected.json: scale ("full" or "smoke") → workload →
// search name → pin.
type pinFile struct {
	Pins map[string]map[string]map[string]pin `json:"pins"`
	// recording makes check record what it sees instead of comparing
	// (-pin, which prints the file's next version).
	recording bool
}

func loadPins() (*pinFile, error) {
	var pf pinFile
	if err := json.Unmarshal(expectedJSON, &pf); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &pf, nil
}

// verdict is what a finished search showed, in pin form.
type verdict struct {
	pin
	complete bool
}

func violationKeys(vs []nice.Violation) []string {
	keys := make([]string, len(vs))
	for i, v := range vs {
		keys[i] = v.Property + "|" + v.Err.Error()
	}
	return keys
}

// verdictOf digests a report. exact says whether the state and
// transition counts are facts of the model (see pin).
func verdictOf(r *nice.Report, exact, classes bool) verdict {
	v := verdictOfKeys(violationKeys(r.Violations))
	v.complete = r.Complete
	if exact {
		v.States, v.Transitions = r.UniqueStates, r.Transitions
	}
	if classes {
		v.Classes = r.PacketClasses
	}
	return v
}

func verdictOfKeys(keys []string) verdict {
	sort.Strings(keys)
	props := map[string]int{}
	for _, k := range keys {
		name, _, _ := strings.Cut(k, "|")
		props[name]++
	}
	sum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
	return verdict{complete: true, pin: pin{Violations: len(keys),
		ViolationSet: hex.EncodeToString(sum[:]), Properties: props}}
}

// check compares a verdict with the pin of one of the workload's
// searches and returns the mismatch, or "" when it holds. An incomplete
// report never holds.
func (e *env) check(search string, got verdict) string {
	workload := e.workload
	scale := "full"
	if e.smoke {
		scale = "smoke"
	}
	if !got.complete {
		return fmt.Sprintf("%s: report incomplete", search)
	}
	if e.pins.recording {
		e.mu.Lock() // service clients check concurrently
		defer e.mu.Unlock()
		if e.pins.Pins[scale] == nil {
			e.pins.Pins[scale] = map[string]map[string]pin{}
		}
		if e.pins.Pins[scale][workload] == nil {
			e.pins.Pins[scale][workload] = map[string]pin{}
		}
		if old, ok := e.pins.Pins[scale][workload][search]; ok && !reflect.DeepEqual(old, got.pin) {
			return fmt.Sprintf("%s: two searches of one pin disagree: %+v, then %+v", search, old, got.pin)
		}
		e.pins.Pins[scale][workload][search] = got.pin
		return ""
	}
	want, ok := e.pins.Pins[scale][workload][search]
	if !ok {
		return fmt.Sprintf("%s: no pin in expected.json (%s scale)", search, scale)
	}
	switch {
	case got.ViolationSet != want.ViolationSet || got.Violations != want.Violations:
		return fmt.Sprintf("%s: violation set %v (%s), pinned %v (%s)", search,
			got.Properties, got.ViolationSet[:12], want.Properties, want.ViolationSet[:12])
	case got.States != want.States || got.Transitions != want.Transitions:
		return fmt.Sprintf("%s: %d states / %d transitions, pinned %d / %d", search,
			got.States, got.Transitions, want.States, want.Transitions)
	case got.Classes != want.Classes:
		return fmt.Sprintf("%s: %d packet classes, pinned %d", search, got.Classes, want.Classes)
	}
	return ""
}

// printPins runs every workload's set-up and traced run (between them
// they make every pinned search at least once) at both scales in
// recording mode, and prints the resulting expected.json.
func printPins() error {
	pf := &pinFile{Pins: map[string]map[string]map[string]pin{}, recording: true}
	for _, smoke := range []bool{false, true} {
		for _, w := range workloads {
			e := &env{workload: w.name(), seed: 1, smoke: smoke, outDir: ".bench_build/out", pins: pf}
			sess, err := w.setup(e)
			if err != nil {
				return err
			}
			sess.traced(newTracer(), time.Second, map[string]float64{})
			sess.close()
			if len(e.failures) > 0 {
				return fmt.Errorf("%s: %s", w.name(), strings.Join(e.failures, "; "))
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	return enc.Encode(pf)
}
