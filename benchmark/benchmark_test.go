package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	nice "github.com/nice-go/nice"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/scenarios"
)

// TestDriverParity proves the traced DFS driver is the search
// nice.Run performs: same unique states, transitions, revisits and
// violation set on three models, with its spans covering at least nine
// tenths of its wall.
func TestDriverParity(t *testing.T) {
	bench := func(name string, scale int) func() *core.Config {
		return func() *core.Config { return scenarios.MustLookup(name).Config(scale) }
	}
	for _, c := range []namedConfig{
		{"pyswitch-bench(3)", bench("pyswitch-bench", 3)},
		{"loadbalancer-bench(4)", bench("loadbalancer-bench", 4)},
		{"linear4-oneway", func() *core.Config { return linearOneWay(4) }},
	} {
		want := nice.Run(background, c.build())
		tr := newTracer()
		d := newDriver(tr, c.build(), c.name)
		d.run(-1)
		if d.counts.UniqueStates != want.UniqueStates || d.counts.Transitions != want.Transitions ||
			d.counts.Revisits != want.Revisits || d.counts.Truncated != want.Truncated {
			t.Errorf("%s: driver %+v, nice.Run %d states / %d transitions / %d revisits / %d truncated",
				c.name, d.counts, want.UniqueStates, want.Transitions, want.Revisits, want.Truncated)
		}
		got, ref := verdictOfKeys(violationKeys(d.violations)), verdictOf(want, false, false)
		if got.ViolationSet != ref.ViolationSet {
			t.Errorf("%s: driver violations %v, nice.Run %v", c.name, got.Properties, ref.Properties)
		}
		root := tr.spans[d.root]
		if cov := float64(tr.covered[d.root]) / float64(root.End-root.Start); cov < 0.9 && want.Transitions > 10000 {
			t.Errorf("%s: trace.coverage %.3f < 0.9", c.name, cov)
		}
	}
}

// TestSmoke runs every workload at reduced scale, untraced on two
// seeds (where the seed reaches the untraced run) and traced on one:
// every verdict must hold, every metric the contract names must be
// reported, and the exact counts must not depend on the seed.
func TestSmoke(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	run := func(w workload, seed int64, traced bool) *runResult {
		e := &env{workload: w.name(), seed: seed, smoke: true, outDir: out, pins: pins}
		res, err := runWorkload(w, e, 50*time.Millisecond, traced)
		if err != nil {
			t.Fatalf("%s: %v", w.name(), err)
		}
		if !res.Correct || res.Attempted < 2 {
			t.Errorf("%s seed %d traced %v: %d of %d ops failed: %v", w.name(), seed, traced,
				res.Failed, res.Attempted, res.Failures)
		}
		return res
	}
	// Only these two draw on the seed in an untraced run.
	seeded := map[string]bool{"table2-first-violation": true, "service-2tenants": true}
	for _, w := range workloads {
		a := run(w, 1, false)
		for _, d := range endToEnd {
			if st, ok := a.Stats[d.Name]; !ok || st.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s missing or not positive: %+v", w.name(), d.Name, st)
			}
		}
		var line struct {
			Metrics map[string]struct{ Unit string }
		}
		if err := json.Unmarshal([]byte(a.contractLine(endToEnd)), &line); err != nil || len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: contract line %s: %v", w.name(), a.contractLine(endToEnd), err)
		}
		if seeded[w.name()] {
			b := run(w, 2, false)
			for _, m := range []string{"states_explored", "transitions_to_verdict"} {
				if a.Stats[m].Value != b.Stats[m].Value {
					t.Errorf("%s: %s depends on the seed: %v vs %v", w.name(), m, a.Stats[m].Value, b.Stats[m].Value)
				}
			}
		}
		tr := run(w, 1, true)
		for _, d := range perLayer {
			if _, ok := tr.Stats[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not reported", w.name(), d.Name)
			}
		}
		if tr.Stats["core.fingerprint.calls"].Value == 0 || tr.Stats["canon.hash128.ns"].Value == 0 {
			t.Errorf("%s: traced run recorded no core or canon spans", w.name())
		}
		// A layer shows where the workload enters it, and only there.
		for prefix, owner := range map[string]string{"search.": "pyswitch-full-par2",
			"service.": "service-2tenants", "core.dpor.": "dpor-linear6", "campaign.": "table2-first-violation"} {
			entered := false
			for _, d := range perLayer {
				if strings.HasPrefix(d.Name, prefix) && tr.Stats[d.Name].Value != 0 {
					entered = true
				}
			}
			if entered != (w.name() == owner) {
				t.Errorf("%s: layer %s* entered = %v", w.name(), prefix, entered)
			}
		}
		if _, err := os.Stat(out + "/trace-" + w.name() + ".json"); err != nil {
			t.Errorf("%s: %v", w.name(), err)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the tables here.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name() || doc.Workloads[i].Why != w.why() || len(w.why()) > 200 {
			t.Errorf("workload %d: BENCHMARK.json %+v, the benchmark %q: %q", i, doc.Workloads[i], w.name(), w.why())
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != (metric{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, the benchmark %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestQuartiles holds quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 10, 5, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestCompare checks the A/A verdict and that a regression beyond the
// bound is called worse.
func TestCompare(t *testing.T) {
	mk := func(verdict float64) *fullResult {
		f := &fullResult{Env: map[string]string{}, Untraced: map[string]*runResult{}, Traced: map[string]*runResult{}}
		for _, w := range workloads {
			r := &runResult{Correct: true, Attempted: 1, Stats: map[string]stat{}}
			for _, d := range endToEnd {
				r.Stats[d.Name] = stat{Value: 1, Unit: d.Unit}
			}
			r.Stats["verdict_s"] = stat{Value: verdict, Unit: "s"}
			f.Untraced[w.name()] = r
		}
		return f
	}
	var buf bytes.Buffer
	if !compareResults(&buf, mk(1), mk(1.1)) || strings.Contains(buf.String(), "worse") {
		t.Errorf("10%% slower verdict_s (bound 25%%) not within:\n%s", buf.String())
	}
	buf.Reset()
	if compareResults(&buf, mk(1), mk(1.4)) || !strings.Contains(buf.String(), "worse") {
		t.Errorf("40%% slower verdict_s not called worse:\n%s", buf.String())
	}
}
