package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readFull(path string) (*fullResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f fullResult
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// worsening is the share of a's value by which b is worse, given the
// metric's direction; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints one row per end-to-end metric and workload —
// both values, the ratio B/A with its base, the bound and the verdict
// — and the per-layer deltas underneath. It reports whether no row is
// worse and no run failed an op.
func compareFiles(w io.Writer, pathA, pathB string) bool {
	a, err := readFull(pathA)
	if err == nil {
		var b *fullResult
		if b, err = readFull(pathB); err == nil {
			return compareResults(w, a, b)
		}
	}
	fmt.Fprintln(w, "compare:", err)
	return false
}

func compareResults(w io.Writer, a, b *fullResult) bool {
	ok := true
	fmt.Fprintf(w, "A: seed %d, commit %s    B: seed %d, commit %s\n\n", a.Seed, a.Env["commit"], b.Seed, b.Env["commit"])
	fmt.Fprintf(w, "%-24s %-24s %14s %14s %9s %6s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a.Untraced[wl.name()], b.Untraced[wl.name()]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-24s missing from one side\n", wl.name())
			ok = false
			continue
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(w, "%-24s failed ops: A %d/%d, B %d/%d\n", wl.name(), ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			ok = false
		}
		for _, d := range endToEnd {
			sa, sb := ra.Stats[d.Name], rb.Stats[d.Name]
			verdict := "within"
			switch worse := worsening(d, sa.Value, sb.Value); {
			case sa.Unresolved || sb.Unresolved:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "worse"
				ok = false
			case worse < -d.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-24s %-24s %14.6g %14.6g %9.4f %5.0f%%  %s\n", wl.name(), d.Name,
				sa.Value, sb.Value, sb.Value/sa.Value, d.Bound*100, verdict)
		}
	}
	fmt.Fprintf(w, "\nper-layer deltas (traced runs; no bounds, they explain the rows above)\n")
	fmt.Fprintf(w, "%-24s %-40s %14s %14s %9s\n", "workload", "metric", "A", "B", "B/A")
	for _, wl := range workloads {
		ra, rb := a.Traced[wl.name()], b.Traced[wl.name()]
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range perLayer {
			va, vb := ra.Stats[d.Name].Value, rb.Stats[d.Name].Value
			if va == 0 && vb == 0 {
				continue // a layer this workload never enters
			}
			ratio := "-"
			if va != 0 {
				ratio = fmt.Sprintf("%.4f", vb/va)
			}
			fmt.Fprintf(w, "%-24s %-40s %14.6g %14.6g %9s\n", wl.name(), d.Name, va, vb, ratio)
		}
	}
	return ok
}
