package core

import (
	"fmt"

	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/internal/cow"
)

// Fingerprint returns the fixed-width 128-bit identity of the state —
// the key of every explored-state set. Instead of serializing the
// system per state (the paper hashes a full cPickle serialization, §6),
// it combines the 64-bit structural hashes each component keeps of its
// own fields: a switch, host or channel map that did not change since
// the last state costs one cached word, and one that did re-folds its
// fields as machine words — no string is built on this path. The flow
// table's term is a commutative sum maintained at every flow_mod, so
// the canonical (order-free) table needs no sort either.
//
// Every structural hash folds exactly the fields its component's
// StateKey renders, so states with equal OracleKey strings have equal
// fingerprints. The converse holds up to (improbable) collisions: each
// component — and each rule of a canonical table, before summing — is
// compressed to 64 bits, so a 64-bit component collision, or two rule
// multisets whose per-rule hashes share a sum, could merge states the
// OracleKey distinguishes. scenarios' reference explorer, which names
// states by OracleKey, asserts the search reports agree in practice; a
// count divergence there means a missing dirty hook (VerifyCaches
// pinpoints it), a missing COW hook, or such a collision.
func (s *System) Fingerprint() canon.Digest {
	canonical, hashCounters := s.cfg.tableHashMode()
	h := canon.NewMix128()
	for _, sw := range s.switches {
		h = h.Word(sw.KeyHash64(canonical, hashCounters))
	}
	app := s.ctrl.AppKeyDigest()
	h = h.Word(app[0]).Word(app[1]).Word(s.ctrl.InKeyHash64()).Word(s.ctrl.OutKeyHash64())
	for _, host := range s.hosts {
		h = h.Word(host.KeyHash64())
	}
	// Property keys stay strings (the public Property contract); each
	// slot caches its key's hash.
	for i := range s.props {
		h = h.Word(s.props[i].keyHash())
	}
	// Discover-cache presence is part of state identity (see
	// OracleKey): one word per host and switch, 0 when not cached.
	if !s.cfg.DisableSE {
		for _, host := range s.hosts {
			if pkts, ok := s.caches.packets.get(packetsKeyWith(host, app)); ok {
				h = h.Word(uint64(len(pkts)) + 1)
			} else {
				h = h.Word(0)
			}
		}
		for _, sw := range s.swIDs {
			if vs, ok := s.caches.stats.get(statsCacheKey{sw: sw, app: app}); ok {
				h = h.Word(uint64(len(vs)) + 1)
			} else {
				h = h.Word(0)
			}
		}
	}
	f := &s.faults
	h = h.Word(canon.NewMix(0).Str(s.lastGroup).Word(uint64(len(s.groupCounts))).Word(s.groupDigest).
		Word(uint64(f.drops)).Word(uint64(f.dups)).Word(uint64(f.reorders)).
		Word(uint64(f.linkFails)).Word(uint64(f.switchFails)).Sum())
	// Every memoized component hash is now filled — the same walk
	// warmKeyCaches does.
	s.cachesWarm = true
	return h.Sum()
}

// VerifyCaches cross-checks everything Fingerprint reads from a cache —
// each switch, host and channel hash, the flow tables' maintained sums
// and the messages' memoized hashes inside them, the group-count
// digest, the application key and the property key hashes — against a
// from-scratch recompute, returning an error naming the first stale
// component. Stress tests walk transition sequences and call it after
// every step; a failure means a mutation path is missing its
// dirty-tracking hook or version bump.
func (s *System) VerifyCaches() error {
	canonical, hashCounters := s.cfg.tableHashMode()
	var err error
	check := func(cached, fresh any, what string, id int) {
		if err == nil && cached != fresh {
			err = fmt.Errorf("core: stale %s %d cache:\n  cached: %v\n  fresh:  %v", what, id, cached, fresh)
		}
	}
	for _, sw := range s.switches {
		check(sw.KeyHash64(canonical, hashCounters), sw.FreshKeyHash64(canonical, hashCounters), "switch hash", int(sw.ID))
	}
	in, out := s.ctrl.FreshKeyHashes()
	check(s.ctrl.InKeyHash64(), in, "controller in-channel hash", 0)
	check(s.ctrl.OutKeyHash64(), out, "controller out-channel hash", 0)
	check(s.ctrl.AppKey(), s.ctrl.App.StateKey(), "application key", 0)
	for _, host := range s.hosts {
		check(host.KeyHash64(), host.FreshKeyHash64(), "host hash", int(host.ID))
	}
	for i := range s.props {
		sl := &s.props[i]
		check(sl.keyHash(), canon.Hash64String(sl.p.StateKey()), "property key hash "+sl.p.Name(), i)
	}
	var groups uint64
	for k, n := range s.groupCounts {
		groups += groupEntryHash(k, n)
	}
	check(s.groupDigest, groups, "group-count digest", 0)
	return err
}

// propSlot is one property of a System with its cached key hash. It
// follows the rule controller.Runtime applies to an app's key: the hash
// of a controller.Versioned property stays valid until its version
// moves, and any other property's slot is invalidated by ownProp, when
// a batch is delivered to it. The slots are copied with the props slice
// (ownProp), so a fork keeps its parent's hashes.
type propSlot struct {
	p       Property
	hash    uint64 // canon.Hash64String(p.StateKey()) when valid
	version uint64 // a Versioned p's StateVersion when hash was taken
	valid   bool
	cow.Tag // p is owned at the tag's epoch, as a switch is (ownProp)
}

// keyHash returns the slot's hash, rendering the key only when the slot
// is stale. A stale slot lives only in a props slice its System owns
// (cow invariant 3: Clone warms every slot first), so this write never
// touches a slice another System reads.
func (sl *propSlot) keyHash() uint64 {
	v, versioned := sl.p.(controller.Versioned)
	if sl.valid && (!versioned || v.StateVersion() == sl.version) {
		return sl.hash
	}
	sl.hash = canon.Hash64String(sl.p.StateKey())
	if versioned {
		sl.version = v.StateVersion()
	}
	sl.valid = true
	return sl.hash
}
