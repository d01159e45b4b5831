package core

import (
	"fmt"

	"github.com/nice-go/nice/internal/canon"
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
	// Property keys stay strings (the public Property contract);
	// KeyHasher properties memoize the hash next to the key.
	for _, p := range s.props {
		if kh, ok := p.(KeyHasher); ok {
			h = h.Word(kh.StateKeyHash64())
		} else {
			h = h.Word(canon.Hash64String(p.StateKey()))
		}
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
// digest, and the memoized application and property keys — against a
// from-scratch recompute, returning an error naming the first stale
// component. Stress tests walk transition sequences and call it after
// every step; a failure means a mutation path is missing its
// dirty-tracking hook.
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
	for i, p := range s.props {
		check(p.StateKey(), freshPropKey(p), "property key "+p.Name(), i)
	}
	var groups uint64
	for k, n := range s.groupCounts {
		groups += groupEntryHash(k, n)
	}
	check(s.groupDigest, groups, "group-count digest", 0)
	return err
}
