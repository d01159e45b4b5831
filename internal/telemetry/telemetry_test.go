package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestNilRegistryIsFree: every lookup and handle method is a no-op on
// the disabled (nil) registry — the hot-path contract.
func TestNilRegistryIsFree(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	c.Inc()
	c.Add(5)
	c.Store(9)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	g := reg.Gauge("y")
	g.Set(3)
	g.SetMax(7)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	h := reg.Histogram("z", []int64{1, 2})
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram observed")
	}
	reg.Emit("s", TraceViolation, 1, "n")
	if ev := reg.Trace(); ev != nil {
		t.Errorf("nil registry traced %v", ev)
	}
	sc := reg.Scope("dfs")
	sc.Counter("a").Inc()
	sc.Gauge("b").Set(1)
	sc.Histogram("c", nil).Observe(1)
	sc.Emit(TraceSearchStart, 0, "")
	if sc.Name() != "" {
		t.Error("nil scope has a name")
	}
	snap := reg.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Errorf("nil-registry snapshot invalid: %v", err)
	}
}

// TestCountersGaugesHistograms: basic metric semantics, including
// registration idempotence and histogram bucketing.
func TestCountersGaugesHistograms(t *testing.T) {
	reg := New()
	c := reg.Counter("hits")
	c.Inc()
	c.Add(2)
	if reg.Counter("hits") != c {
		t.Error("re-registration returned a different counter")
	}
	if c.Value() != 3 {
		t.Errorf("counter = %d, want 3", c.Value())
	}
	c.Store(10)
	if c.Value() != 10 {
		t.Errorf("after Store, counter = %d", c.Value())
	}

	g := reg.Gauge("frontier")
	g.Set(4)
	g.SetMax(2)
	if g.Value() != 4 {
		t.Errorf("SetMax lowered the gauge to %d", g.Value())
	}
	g.SetMax(9)
	if g.Value() != 9 {
		t.Errorf("SetMax did not lift the gauge: %d", g.Value())
	}

	h := reg.Histogram("depth", []int64{1, 4, 16})
	for _, v := range []int64{0, 1, 2, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 108 {
		t.Errorf("count/sum = %d/%d", h.Count(), h.Sum())
	}
	hs := reg.Snapshot().Histograms["depth"]
	want := []int64{2, 1, 1, 1} // <=1: {0,1}; <=4: {2}; <=16: {5}; overflow: {100}
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (%v)", i, hs.Counts[i], w, hs.Counts)
		}
	}
}

// TestScopePrefixing: scoped handles share storage with the full name.
func TestScopePrefixing(t *testing.T) {
	reg := New()
	reg.Scope("dfs").Counter("transitions").Add(7)
	if got := reg.Counter("dfs.transitions").Value(); got != 7 {
		t.Errorf("dfs.transitions = %d, want 7", got)
	}
	reg.Scope("cow").Histogram("x", []int64{1}).Observe(1)
	if _, ok := reg.Snapshot().Histograms["cow.x"]; !ok {
		t.Error("scoped histogram not registered under prefixed name")
	}
}

// TestCreditOnce: a source is credited to a registry once, each
// registry keeps its own ledger, and a nil registry credits nothing.
func TestCreditOnce(t *testing.T) {
	a, b := New(), New()
	if !a.CreditOnce(1) || a.CreditOnce(1) {
		t.Error("source 1 credited to a other than exactly once")
	}
	if !a.CreditOnce(2) || !b.CreditOnce(1) {
		t.Error("a new source, or a new registry, was not credited")
	}
	var nilReg *Registry
	if nilReg.CreditOnce(1) {
		t.Error("nil registry credited a source")
	}
}

// TestTraceRing: sequence numbers are monotonic and the ring evicts
// oldest-first at capacity.
func TestTraceRing(t *testing.T) {
	tr := tracer{cap: 4}
	for i := 0; i < 6; i++ {
		tr.emit("s", TraceExpandBatch, int64(i), "")
	}
	ev := tr.events()
	if len(ev) != 4 {
		t.Fatalf("%d events, want 4", len(ev))
	}
	for i, e := range ev {
		if e.Seq != int64(i+2) || e.N != int64(i+2) {
			t.Errorf("event %d: seq %d n %d, want %d", i, e.Seq, e.N, i+2)
		}
	}
}

// TestSnapshotRoundTrip: snapshot → JSON → LoadSnapshot preserves every
// series and passes validation.
func TestSnapshotRoundTrip(t *testing.T) {
	reg := New()
	reg.Scope("parallel").Counter("transitions").Add(100)
	reg.Scope("parallel").Gauge("frontier").Set(12)
	reg.Scope("parallel").Histogram("depth", []int64{2, 8}).Observe(3)
	reg.Emit("parallel", TraceSearchStop, 100, "complete")

	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := reg.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Counter("parallel.transitions") != 100 {
		t.Errorf("counter lost: %+v", back.Counters)
	}
	if back.Gauge("parallel.frontier") != 12 {
		t.Errorf("gauge lost: %+v", back.Gauges)
	}
	if names := back.HistogramsWithSuffix(".depth"); len(names) != 1 || names[0] != "parallel.depth" {
		t.Errorf("depth histogram lost: %v", names)
	}
	if len(back.Trace) != 1 || back.Trace[0].Kind != TraceSearchStop {
		t.Errorf("trace lost: %+v", back.Trace)
	}
}

// TestSnapshotValidation: malformed snapshots are rejected with a
// useful error.
func TestSnapshotValidation(t *testing.T) {
	bad := []Snapshot{
		{Schema: 99},
		{Schema: SnapshotSchema, Histograms: map[string]HistogramSnapshot{
			"h": {Bounds: []int64{1, 2}, Counts: []int64{0, 0}}}},
		{Schema: SnapshotSchema, Histograms: map[string]HistogramSnapshot{
			"h": {Bounds: []int64{2, 1}, Counts: []int64{0, 0, 0}}}},
		{Schema: SnapshotSchema, Histograms: map[string]HistogramSnapshot{
			"h": {Bounds: []int64{1}, Counts: []int64{3, 3}, Count: 1}}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("snapshot %d validated", i)
		}
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(path, []byte("{not json"), 0o644)
	if _, err := LoadSnapshot(path); err == nil {
		t.Error("LoadSnapshot accepted malformed JSON")
	}
}

// TestConcurrentUse: handles race-cleanly under parallel writers (run
// with -race in CI).
func TestConcurrentUse(t *testing.T) {
	reg := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := reg.Scope("parallel")
			for i := 0; i < 500; i++ {
				sc.Counter("transitions").Inc()
				sc.Gauge("frontier").SetMax(int64(i))
				sc.Histogram("depth", []int64{4, 64}).Observe(int64(i % 100))
				if i%100 == 0 {
					sc.Emit(TraceExpandBatch, int64(i), "")
				}
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter("parallel.transitions").Value(); got != 4000 {
		t.Errorf("transitions = %d, want 4000", got)
	}
	if err := reg.Snapshot().Validate(); err != nil {
		t.Error(err)
	}
}

// TestMux: the HTTP endpoints serve well-formed JSON.
func TestMux(t *testing.T) {
	reg := New()
	reg.Scope("dfs").Counter("transitions").Add(42)
	reg.Emit("dfs", TraceSearchStart, 0, "")
	mux := NewMux(reg)

	for _, path := range []string{"/metrics", "/trace", "/debug/vars"} {
		req := httptest.NewRequest("GET", path, nil)
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		if w.Code != 200 {
			t.Errorf("%s: status %d", path, w.Code)
			continue
		}
		var v any
		if err := json.NewDecoder(bytes.NewReader(w.Body.Bytes())).Decode(&v); err != nil {
			t.Errorf("%s: not JSON: %v", path, err)
		}
	}
	req := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	var snap Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counter("dfs.transitions") != 42 {
		t.Errorf("served snapshot missing counter: %+v", snap.Counters)
	}
}
