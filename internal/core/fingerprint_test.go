package core

import (
	"strconv"
	"testing"

	"github.com/nice-go/nice/controller"
)

// versionedProp counts the events delivered to it. It embeds
// controller.VersionCounter, so the System keeps its key hash until the
// version moves; with bump unset it mutates without bumping, the bug
// class a mutation site missing its BumpStateVersion produces.
type versionedProp struct {
	controller.VersionCounter
	events int
	bump   bool
}

func (p *versionedProp) Name() string { return "versioned" }
func (p *versionedProp) Clone() Property {
	c := *p
	return &c
}
func (p *versionedProp) OnEvents(_ *System, events []Event) error {
	p.events += len(events)
	if p.bump {
		p.BumpStateVersion()
	}
	return nil
}
func (p *versionedProp) AtQuiescence(*System) error { return nil }
func (p *versionedProp) StateKey() string           { return strconv.Itoa(p.events) }

// stepWithProperties applies sys's first enabled transition and
// delivers its events to the properties, as every engine does.
func stepWithProperties(t *testing.T, sys *System) {
	t.Helper()
	enabled := sys.Enabled()
	if len(enabled) == 0 {
		t.Fatal("no enabled transitions")
	}
	events := sys.Apply(enabled[0])
	if len(events) == 0 {
		t.Fatal("transition produced no events; no property changes")
	}
	if fails := sys.CheckEvents(events); len(fails) > 0 {
		t.Fatal(fails)
	}
}

// TestVerifyCachesCatchesStalePropertyMemo asserts VerifyCaches renders
// property keys afresh: a Versioned property that mutates without
// bumping keeps its cached hash, and that must surface as a divergence
// rather than poisoning the fingerprint unseen. The same property that
// bumps verifies and moves the fingerprint.
func TestVerifyCachesCatchesStalePropertyMemo(t *testing.T) {
	for _, bump := range []bool{true, false} {
		cfg := hubConfig(1)
		cfg.Properties = []Property{&versionedProp{bump: bump}}
		sys := NewSystem(cfg)
		if err := sys.VerifyCaches(); err != nil {
			t.Fatalf("bump=%t: initial state should verify: %v", bump, err)
		}
		before := sys.Fingerprint() // fills the property's slot
		stepWithProperties(t, sys)
		err := sys.VerifyCaches()
		switch {
		case bump && err != nil:
			t.Errorf("a property that bumps its version fails VerifyCaches: %v", err)
		case bump && sys.Fingerprint() == before:
			t.Error("a bumped property's new key did not reach the fingerprint")
		case !bump && err == nil:
			t.Error("VerifyCaches missed a stale property key hash — it reads the cached hash on both sides")
		}
	}
}

// renderCounter is a property without a version that counts its key
// renders.
type renderCounter struct {
	events  int
	renders *int
}

func (p *renderCounter) Name() string { return "counting" }
func (p *renderCounter) Clone() Property {
	c := *p
	return &c
}
func (p *renderCounter) OnEvents(_ *System, events []Event) error {
	p.events += len(events)
	return nil
}
func (p *renderCounter) AtQuiescence(*System) error { return nil }
func (p *renderCounter) StateKey() string {
	*p.renders++
	return strconv.Itoa(p.events)
}

// TestUnversionedPropertyRendersOncePerBatch: a property without
// controller.Versioned is rendered once after each batch delivered to
// it, however many fingerprints follow, and a fork reuses the render.
func TestUnversionedPropertyRendersOncePerBatch(t *testing.T) {
	renders := 0
	cfg := hubConfig(1)
	cfg.Properties = []Property{&renderCounter{renders: &renders}}
	sys := NewSystem(cfg)
	sys.Fingerprint()
	stepWithProperties(t, sys)
	renders = 0
	for range 5 {
		sys.Fingerprint()
	}
	sys.Clone().Fingerprint()
	if renders != 1 {
		t.Errorf("%d renders after one delivered batch and six fingerprints, want 1", renders)
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
