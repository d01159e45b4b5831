package cow

import "iter"

// Map is a copy-on-write map, the one implementation of the nested-state
// rule for plain maps: a holder's fork struct-copies the Map and calls
// Borrow, and the fork's first Set or Delete copies the map, so the
// frozen source is never written. Reads go through Get, Len and All.
// The zero Map is an empty owned map.
type Map[K comparable, V any] struct{ table[K, V] }

// Queues is Map's form for per-key FIFO queues. Its copy clamps every
// queue slice to len == cap, so an Append on either side of a fork
// reallocates instead of writing a backing array the other side reads,
// and its writers (Set, Append, PopHead) copy a borrowed map first.
type Queues[K comparable, E any] struct{ table[K, []E] }

// table is what Map and Queues share: the map, whether it is borrowed
// from the source of a fork, and the spare a recycled shell kept.
type table[K comparable, V any] struct {
	m map[K]V
	// borrowed: m belongs to a frozen source and is never written here.
	borrowed bool
	// spare is an emptied map only this struct references (Recycle);
	// the next copy refills it instead of making a new one.
	spare map[K]V
}

// Borrow marks m, just struct-copied from a map a frozen source holds,
// as shared with that source: the first write copies it. The source's
// spare stays with the source. shell, when not nil, is what m held
// before the struct copy (a recycled shell's Map), and its spare becomes
// m's.
func (m *Map[K, V]) Borrow(shell *Map[K, V]) {
	m.borrowed, m.spare = true, nil
	if shell != nil {
		m.spare = shell.spare
	}
}

// Borrow is Map.Borrow for queues.
func (q *Queues[K, E]) Borrow(shell *Queues[K, E]) {
	q.borrowed, q.spare = true, nil
	if shell != nil {
		q.spare = shell.spare
	}
}

// Get returns the value stored under k.
func (t *table[K, V]) Get(k K) (V, bool) {
	v, ok := t.m[k]
	return v, ok
}

// Len returns the number of keys.
func (t *table[K, V]) Len() int { return len(t.m) }

// All iterates the entries in map order. A write during the iteration
// may copy the map; the iteration goes on over the map it started on.
func (t *table[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for k, v := range t.m {
			if !yield(k, v) {
				return
			}
		}
	}
}

// Read returns the map itself for a reader that takes a Go map (the
// concolic lookups of internal/sym). It must not be written.
func (t *table[K, V]) Read() map[K]V { return t.m }

// Recycle empties the map, keeping it as the spare the next copy
// refills when this struct owned it; a borrowed map belongs to its
// source and is left alone. Only the model checker's reclaim calls it,
// on a holder no live state reaches, so a stale reader sees no entries.
func (t *table[K, V]) Recycle() {
	if !t.borrowed && t.m != nil {
		clear(t.m)
		t.spare = t.m
	}
	t.m, t.borrowed = nil, false
}

// fresh returns the empty map a copy of t.m fills, the spare when there
// is one, else a new map sized for the copy and extra more keys; t owns
// its map from here on.
func (t *table[K, V]) fresh(extra int) map[K]V {
	c := t.spare
	if c == nil {
		c = make(map[K]V, len(t.m)+extra)
	}
	t.spare, t.borrowed = nil, false
	return c
}

// own copies a borrowed (or makes a missing) map before a write.
func (m *Map[K, V]) own() {
	if m.borrowed || m.m == nil {
		m.copy()
	}
}

// copy sizes a new map for the key the write that asked for it may add.
func (m *Map[K, V]) copy() {
	c := m.fresh(1)
	for k, v := range m.m {
		c[k] = v
	}
	m.m = c
}

// Set stores v under k.
func (m *Map[K, V]) Set(k K, v V) {
	m.own()
	m.m[k] = v
}

// Delete removes k.
func (m *Map[K, V]) Delete(k K) {
	if _, ok := m.m[k]; ok {
		m.own()
		delete(m.m, k)
	}
}

func (q *Queues[K, E]) own() {
	if q.borrowed || q.m == nil {
		q.copy()
	}
}

func (q *Queues[K, E]) copy() {
	c := q.fresh(0)
	for k, s := range q.m {
		c[k] = s[:len(s):len(s)]
	}
	q.m = c
}

// Queue returns k's queue, head first. It must not be written.
func (q *Queues[K, E]) Queue(k K) []E { return q.m[k] }

// Set replaces k's queue with s, which the caller gives up.
func (q *Queues[K, E]) Set(k K, s []E) {
	q.own()
	q.m[k] = s
}

// Append adds e at the tail of k's queue.
func (q *Queues[K, E]) Append(k K, e E) {
	q.own()
	q.m[k] = append(q.m[k], e)
}

// PopHead removes and returns the head of k's queue; a drained queue
// leaves the map, so hashes and the next fork's copy walk only the
// keys with something queued. The tail keeps its backing, which no
// writer touches in place (appends reallocate past the clamp).
func (q *Queues[K, E]) PopHead(k K) (E, bool) {
	s := q.m[k]
	if len(s) == 0 {
		var zero E
		return zero, false
	}
	if q.borrowed {
		q.copy()
		s = q.m[k] // the copy's clamped slice, not the source's
	}
	if len(s) == 1 {
		delete(q.m, k)
	} else {
		q.m[k] = s[1:]
	}
	return s[0], true
}
