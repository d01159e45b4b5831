package core

import (
	"fmt"
	"slices"
	"testing"
)

// weakKeyHash makes hash collisions the common case: every run whose
// length agrees modulo 4 lands on one chain, so sharing rests on the
// content comparison alone.
func weakKeyHash(run []uint64) uint64 { return uint64(len(run) % 4) }

// storeOracle mirrors a runStore with plain maps: content → id and back.
type storeOracle struct {
	s    *runStore[uint64]
	ids  map[string]uint32
	runs map[uint32][]uint64
}

func newStoreOracle(s *runStore[uint64]) *storeOracle {
	return &storeOracle{s: s, ids: map[string]uint32{}, runs: map[uint32][]uint64{}}
}

// put stores run and checks that its id is shared exactly with the
// runs of equal content and that get returns what was put.
func (o *storeOracle) put(t testing.TB, run []uint64) uint32 {
	t.Helper()
	id := o.s.put(run)
	key := fmt.Sprint(len(run), run)
	if want, ok := o.ids[key]; ok && id != want {
		t.Fatalf("run %v stored as %d, its equal as %d", run, id, want)
	}
	if have, ok := o.runs[id]; ok && !slices.Equal(have, run) {
		t.Fatalf("runs %v and %v share id %d", have, run, id)
	}
	o.ids[key] = id
	o.runs[id] = slices.Clone(run)
	o.check(t, id)
	return id
}

// check holds get(id) to exactly the run stored, capacity included.
func (o *storeOracle) check(t testing.TB, id uint32) {
	t.Helper()
	got, want := o.s.get(id), o.runs[id]
	if !slices.Equal(got, want) {
		t.Fatalf("get(%d) = %v, put %v", id, got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("get(%d) has capacity %d for %d records", id, cap(got), len(got))
	}
}

// checkAll re-reads every stored run: later puts must not have moved or
// overwritten any of them.
func (o *storeOracle) checkAll(t testing.TB) {
	t.Helper()
	if len(o.s.runs) != len(o.runs) {
		t.Fatalf("store holds %d runs, %d distinct were put", len(o.s.runs), len(o.runs))
	}
	for id := range o.runs {
		o.check(t, id)
	}
}

func keyRange(from, n int) []uint64 {
	run := make([]uint64, n)
	for i := range run {
		run[i] = uint64(from + i)
	}
	return run
}

func TestRunStore(t *testing.T) {
	for name, hash := range map[string]func([]uint64) uint64{"weak": weakKeyHash, "production": hashKeyRun} {
		t.Run(name, func(t *testing.T) {
			c := &dporDFS{sleeps: runStore[uint64]{hash: hash}}
			o := newStoreOracle(&c.sleeps)
			long := keyRange(0, 300) // sleep signatures are not capped at dporSummaryCap
			for _, run := range [][]uint64{
				nil, {}, {1}, {1}, {2}, {1, 2}, {2, 1}, {1, 2, 3, 4, 5}, {0, 0, 0, 0},
				long, slices.Clone(long), append(slices.Clone(long[:299]), 7),
				keyRange(0, 5000), // larger than a slab chunk
				{1, 2}, long[:4], {2},
			} {
				o.put(t, run)
			}
			if got := len(o.s.get(o.ids[fmt.Sprint(300, long)])); got != 300 {
				t.Errorf("the 300-key signature reads back %d keys", got)
			}

			// Two states share a signature; the first is re-expanded under
			// a smaller sleep set and names the intersection. The sharer's
			// run must not change.
			owner := o.put(t, []uint64{10, 20, 30})
			sharer := o.put(t, []uint64{10, 20, 30})
			if owner != sharer {
				t.Fatalf("equal signatures stored as %d and %d", owner, sharer)
			}
			shrunk := c.shrinkSignature(owner, []sleepEntry{{key: 20}, {key: 40}})
			if got := o.s.get(sharer); !slices.Equal(got, []uint64{10, 20, 30}) {
				t.Errorf("re-expanding the owner changed the sharer's signature to %v", got)
			}
			if id := o.put(t, []uint64{20}); id != shrunk {
				t.Errorf("the shrunken signature is %d, its content [20] is %d", shrunk, id)
			}
			o.checkAll(t)
		})
	}
}

// FuzzRunStore drives both hashes through arbitrary put sequences over a
// four-key alphabet, where equal runs are frequent: each byte at a run
// start picks a length (0xf0 and up: a signature of 300+ keys), the
// following bytes the keys.
func FuzzRunStore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 2, 2, 1, 2, 0, 0, 1, 3, 5, 1, 2, 3, 0, 1})
	f.Add([]byte{0xf0, 1, 2, 3, 0xf0, 1, 2, 3, 0xf1, 3, 2, 1, 4, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, hash := range []func([]uint64) uint64{weakKeyHash, hashKeyRun} {
			o := newStoreOracle(&runStore[uint64]{hash: hash})
			for rest := data; len(rest) > 0; {
				n := int(rest[0] % 8)
				if rest[0] >= 0xf0 {
					n = 300 + int(rest[0]&0x0f)
				}
				rest = rest[1:]
				run := make([]uint64, n)
				for i := range run {
					if i < len(rest) {
						run[i] = uint64(rest[i] % 4)
					}
				}
				rest = rest[min(n, len(rest)):]
				o.put(t, run)
			}
			o.checkAll(t)
		}
	})
}
