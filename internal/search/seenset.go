package search

import (
	"sync"

	"github.com/nice-go/nice/internal/canon"
)

// seenSet is the explored-state set shared by all workers: a
// lock-striped hash set keyed by System.Fingerprint(). Striping keeps
// the hot-path insert (one per reached state) from serializing the
// workers on a single mutex. Fingerprints arrive as fixed-width
// [2]uint64 digests, so shard selection reuses the digest's own low bits
// — no re-hashing of a hex string, no per-insert allocation.
type seenSet struct {
	shards []seenShard
	mask   uint32
}

type seenShard struct {
	mu sync.Mutex
	m  map[canon.Digest]struct{}
	// sig holds per-state sleep signatures — allocated only when the
	// search runs with DPOR sleep sets (see AddSleep).
	sig map[canon.Digest][]uint64
	// pad the struct to a 64-byte cache line (8-byte mutex + two 8-byte
	// map headers + 40) so adjacent shards don't false-share.
	_ [40]byte
}

// newSeenSet builds a set with the given shard count rounded up to a
// power of two (minimum 1).
func newSeenSet(shards int) *seenSet {
	n := 1
	for n < shards {
		n <<= 1
	}
	s := &seenSet{shards: make([]seenShard, n), mask: uint32(n - 1)}
	for i := range s.shards {
		s.shards[i].m = make(map[canon.Digest]struct{})
	}
	return s
}

// Add inserts a state fingerprint, reporting whether it was absent (i.e.
// this caller owns the first visit and must expand the state).
func (s *seenSet) Add(d canon.Digest) bool {
	sh := &s.shards[uint32(d[1])&s.mask]
	sh.mu.Lock()
	_, dup := sh.m[d]
	if !dup {
		sh.m[d] = struct{}{}
	}
	sh.mu.Unlock()
	return !dup
}

// AddSleep is Add for sleep-set searches: it inserts fp together with
// its sleep signature (the identity keys asleep when the state is
// expanded). On a first visit it stores the signature and reports
// new=true. On a revisit it compares signatures, mirroring the
// DPOR DFS's stateful sleep-set patch (dpor_dfs.go): keys
// asleep at the stored expansion but awake now ("slipped") were never
// explored from this state, so the caller must re-expand exactly those —
// returned in wake — and the stored signature shrinks to the
// intersection. wake=nil means the stored expansion covers this visit.
// Signatures shrink monotonically, so re-expansion terminates.
func (s *seenSet) AddSleep(d canon.Digest, keys []uint64) (isNew bool, wake []uint64) {
	sh := &s.shards[uint32(d[1])&s.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.sig == nil {
		sh.sig = make(map[canon.Digest][]uint64)
	}
	if _, dup := sh.m[d]; !dup {
		sh.m[d] = struct{}{}
		if len(keys) > 0 {
			sh.sig[d] = append([]uint64(nil), keys...)
		}
		return true, nil
	}
	old := sh.sig[d]
	var kept []uint64
	for _, k := range old {
		if keyIn64(keys, k) {
			kept = append(kept, k)
		} else {
			wake = append(wake, k)
		}
	}
	if len(wake) > 0 {
		if len(kept) > 0 {
			sh.sig[d] = kept
		} else {
			delete(sh.sig, d)
		}
	}
	return false, wake
}

func keyIn64(keys []uint64, key uint64) bool {
	for _, k := range keys {
		if k == key {
			return true
		}
	}
	return false
}

// Len counts the states across all shards.
func (s *seenSet) Len() int64 {
	var n int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += int64(len(sh.m))
		sh.mu.Unlock()
	}
	return n
}

// occupancy reports the largest and mean shard sizes — the striping
// balance telemetry surfaces as seen_shard_max/seen_shard_mean. A max
// far above the mean means the digest bits feeding shard selection are
// clumping and the hot shard's mutex is a contention point.
func (s *seenSet) occupancy() (max, mean int64) {
	var total int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n := int64(len(sh.m))
		sh.mu.Unlock()
		total += n
		if n > max {
			max = n
		}
	}
	return max, total / int64(len(s.shards))
}
