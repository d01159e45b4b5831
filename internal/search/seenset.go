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
	// pad the struct to a 64-byte cache line (8-byte mutex + 8-byte map
	// header + 48) so adjacent shards don't false-share.
	_ [48]byte
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
