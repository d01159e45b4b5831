package core

import (
	"strconv"
	"testing"
)

// staleProp simulates the bug class the FreshKeyer oracle hook exists
// to catch: a memoizing property that forgets to invalidate its cached
// StateKey when its state mutates. StateKey keeps returning the stale
// memo; RenderStateKey reports the live state.
type staleProp struct {
	events int
	memo   string
	valid  bool
}

func (p *staleProp) Name() string { return "stale" }
func (p *staleProp) Clone() Property {
	c := *p
	return &c
}
func (p *staleProp) OnEvents(_ *System, events []Event) error {
	p.events += len(events) // mutation WITHOUT invalidating the memo
	return nil
}
func (p *staleProp) AtQuiescence(*System) error { return nil }
func (p *staleProp) StateKey() string {
	if !p.valid {
		p.memo = p.RenderStateKey()
		p.valid = true
	}
	return p.memo
}
func (p *staleProp) RenderStateKey() string { return strconv.Itoa(p.events) }

// TestVerifyCachesCatchesStalePropertyMemo asserts the oracle path
// bypasses property memos: a property whose cached key goes stale must
// surface as a VerifyCaches divergence rather than poisoning the
// incremental and oracle hashes identically.
func TestVerifyCachesCatchesStalePropertyMemo(t *testing.T) {
	cfg := hubConfig(1)
	cfg.Properties = []Property{&staleProp{}}
	sys := NewSystem(cfg)
	if err := sys.VerifyCaches(); err != nil {
		t.Fatalf("initial state should verify: %v", err)
	}
	// Prime the memo (Fingerprint reads the memoized key), then mutate the property the way the checker does
	// (OnEvents after a transition) without invalidating.
	sys.Fingerprint()
	enabled := sys.Enabled()
	if len(enabled) == 0 {
		t.Fatal("no enabled transitions")
	}
	events := sys.Apply(enabled[0])
	for _, p := range sys.Properties() {
		if err := p.OnEvents(sys, events); err != nil {
			t.Fatal(err)
		}
	}
	if len(events) == 0 {
		t.Fatal("transition produced no events; stale memo not exercised")
	}
	if err := sys.VerifyCaches(); err == nil {
		t.Fatal("VerifyCaches missed a stale property memo — oracle is reading the memoized key")
	}
}

// TestVerifyCachesCatchesMissingDirtyHook mutates each kind of
// component behind its hash cache's back — the bug class a mutation
// path without its MarkDirty/Invalidate hook produces — and asserts
// VerifyCaches reports every one, where the cached-versus-fresh string
// comparison it used to make saw none of them.
func TestVerifyCachesCatchesMissingDirtyHook(t *testing.T) {
	cases := map[string]func(*System){
		"switch field": func(s *System) { s.switches[0].Alive = false },
		"host field":   func(s *System) { s.hosts[0].SendBudget-- },
		"group counts": func(s *System) { s.groupCounts["g"]++ },
	}
	for name, corrupt := range cases {
		sys := NewSystem(hubConfig(1))
		sys.groupCounts["g"], sys.groupDigest = 1, groupEntryHash("g", 1)
		sys.Fingerprint() // fill every cache
		if err := sys.VerifyCaches(); err != nil {
			t.Fatalf("%s: clean state should verify: %v", name, err)
		}
		before := sys.Fingerprint()
		corrupt(sys)
		if sys.Fingerprint() != before {
			t.Fatalf("%s: fingerprint moved without a dirty hook; the case corrupts nothing", name)
		}
		if err := sys.VerifyCaches(); err == nil {
			t.Errorf("%s: VerifyCaches missed a stale component hash", name)
		}
	}
}
