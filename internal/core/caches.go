package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/internal/sym"
	"github.com/nice-go/nice/internal/telemetry"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

// packetsCacheKey identifies one discover_packets memo entry: the
// client, its attachment point, and the 128-bit digest of the
// stringified controller state (Figure 5 keys client.packets by the
// stringified state itself; the fixed-width digest makes the lookup
// allocation-free on the hot path, at fingerprint-grade collision odds).
type packetsCacheKey struct {
	host openflow.HostID
	loc  topo.PortKey
	app  canon.Digest
}

// statsCacheKey is packetsCacheKey for discover_stats.
type statsCacheKey struct {
	sw  openflow.SwitchID
	app canon.Digest
}

// memo is one typed map of the discover cache: Figure 5's client.packets
// (and its stats and solver twins) with an LRU stamp per entry. The map
// stays typed by its key so the Fingerprint/EnabledInto lookups hash a
// fixed-width struct and allocate nothing; the lock, the LRU clock and
// the capacity belong to the owning Caches, because the bound spans all
// three memos.
type memo[K comparable, V any] struct {
	c *Caches
	m map[K]*cacheNode[V]
	// hits/misses are the optional lookup counters (AttachTelemetry);
	// nil means disabled, and a lookup pays one atomic load.
	hits, misses atomic.Pointer[telemetry.Counter]
}

// cacheNode is one memo entry. used carries the logical last-use stamp
// for LRU eviction: hits store a fresh clock tick with an atomic write,
// so the read path keeps the shared RLock (a linked-list LRU would need
// the write lock on every fingerprint-path hit, serializing parallel
// workers). Eviction scans for the minimum stamp — O(entries), but it
// only runs on insert-over-capacity, and every insert is preceded by a
// full concolic execution that dwarfs the scan.
type cacheNode[V any] struct {
	used atomic.Int64
	val  V
}

func newMemo[K comparable, V any](c *Caches) memo[K, V] {
	return memo[K, V]{c: c, m: make(map[K]*cacheNode[V])}
}

// get looks key up, refreshing its recency on a hit. The stamp is an
// atomic write under the RLock, so concurrent hits race benignly (either
// order is a valid recency).
func (m *memo[K, V]) get(key K) (V, bool) {
	c := m.c
	c.mu.RLock()
	n, ok := m.m[key]
	var v V
	if ok {
		v = n.val
		n.used.Store(c.clock.Add(1))
	}
	c.mu.RUnlock()
	if ok {
		m.hits.Load().Inc()
	} else {
		m.misses.Load().Inc()
	}
	return v, ok
}

// put inserts a value; the first writer wins, and the canonical
// (winning) value is returned so racing workers agree. won reports
// whether this call was that first writer.
func (m *memo[K, V]) put(key K, v V) (canonical V, won bool) {
	c := m.c
	c.mu.Lock()
	if prev, ok := m.m[key]; ok {
		c.mu.Unlock()
		return prev.val, false
	}
	n := &cacheNode[V]{val: v}
	n.used.Store(c.clock.Add(1))
	m.m[key] = n
	dropped := c.evictOverCapacityLocked()
	c.mu.Unlock()
	c.noteEvictions(dropped, "lru")
	return v, true
}

// getOrDiscover recalls a discover result or runs discover and memoizes
// it, counting the winning writer's equivalence classes.
func getOrDiscover[K comparable, E any](m *memo[K, []E], key K, discover func() []E) []E {
	if v, ok := m.get(key); ok {
		return v
	}
	v, won := m.put(key, discover())
	if won {
		m.c.noteClasses(len(v))
	}
	return v
}

// lruMemo is what the eviction scan needs of a memo, whatever its key
// and value types. Callers hold the owner's write lock.
type lruMemo interface {
	// oldest reports the smallest last-use stamp and a func that drops
	// that entry; evict is nil when the memo is empty.
	oldest() (stamp int64, evict func())
}

func (m *memo[K, V]) oldest() (stamp int64, evict func()) {
	var victim K
	found := false
	for k, n := range m.m {
		if u := n.used.Load(); !found || u < stamp {
			stamp, victim, found = u, k, true
		}
	}
	if !found {
		return 0, nil
	}
	return stamp, func() { delete(m.m, victim) }
}

// solution is one memoized solver outcome; model is immutable once
// stored.
type solution struct {
	model sym.Assignment
	sat   bool
}

// Caches hold the results of discover transitions. They are shared
// across the whole search (not cloned with states): concolic execution
// is deterministic given the controller state, so the cache is a pure
// memo of Figure 5's client.packets map, keyed by the digested
// controller state. All accessors are safe for concurrent use, so one
// Caches may be shared by the parallel workers of internal/search (and
// across sequential searches, to warm later runs).
//
// WithCapacity bounds the memo with an LRU over all three maps — the
// multi-tenant setting (internal/service), where unbounded scenario
// churn would otherwise grow the process without limit. Evicting is
// memory-safe at any time: discovery is deterministic, so a re-miss
// re-runs concolic execution and re-inserts the identical value. But
// cache presence feeds state identity (System.Fingerprint) and the
// enabled set (sends once present, the discover transition before). The
// sequential checker reads both in one step, so an eviction mid-search
// only makes a revisited state look new and costs re-expansion work.
// The frontier engines fingerprint a state at admission and enumerate
// it at expansion: evict the entry in between and the state offers only
// its discover transition, whose successor is itself — already seen —
// so its sends go unexplored (a 1-entry bound loses bug-ii's violation
// in ~3 % of 2-worker runs). Size the bound above one search's working
// set (the LRU then only reclaims across scenarios) or apply it between
// searches, as Campaign.CachePrune does, and searches stay exact.
type Caches struct {
	mu      sync.RWMutex
	packets memo[packetsCacheKey, []openflow.Header]
	stats   memo[statsCacheKey, [][]openflow.PortStats]
	// solutions memoizes raw solver outcomes across explorations,
	// keyed by the 128-bit digest of the finite-domain problem
	// (sym.ProblemKey) — the same keying discipline as the discover
	// maps, under the same LRU bound.
	solutions memo[canon.Digest, solution]
	seRuns    atomic.Int64 // concolic explorations performed
	// classes counts discovered equivalence classes (packet headers +
	// stats vectors) inserted into the memo, cumulatively — eviction
	// never decrements it, so it is a monotone discovery counter, not
	// an occupancy gauge.
	classes atomic.Int64

	// capacity bounds the three memos' total entry count; 0 =
	// unbounded. clock is the logical LRU timestamp source (monotonic
	// per lookup/insert).
	capacity  int
	clock     atomic.Int64
	evictions atomic.Int64

	// tel is the eviction instrumentation, attached race-free
	// mid-lifetime (campaigns share one Caches across concurrent jobs);
	// sym is the symbolic-execution instrumentation ("sym" scope),
	// attached alongside it. Both start as bundles of nil counters,
	// which count nothing.
	tel atomic.Pointer[cacheTelemetry]
	sym atomic.Pointer[symTelemetry]
	// credited lists the registries whose sym totals already include
	// this set's pre-attachment discovery (guarded by mu).
	credited []*telemetry.Registry
}

// NewCaches builds an empty, unbounded discover-cache set.
func NewCaches() *Caches {
	c := &Caches{}
	c.packets, c.stats, c.solutions = newMemo[packetsCacheKey, []openflow.Header](c),
		newMemo[statsCacheKey, [][]openflow.PortStats](c), newMemo[canon.Digest, solution](c)
	c.tel.Store(&cacheTelemetry{})
	c.sym.Store(&symTelemetry{})
	return c
}

// symTelemetry is the symbolic-execution metric bundle ("sym" scope):
// the concolic loop's observability surface. All counters are monotone;
// memo_hits/memo_misses are the solutions memo's own lookup counters.
type symTelemetry struct {
	explorations *telemetry.Counter // discover runs (= SERuns delta)
	paths        *telemetry.Counter // distinct feasible handler paths
	solverCalls  *telemetry.Counter // solver invocations (memo included)
	solverSat    *telemetry.Counter
	solverUnsat  *telemetry.Counter
	classes      *telemetry.Counter // equivalence classes discovered
}

// cacheTelemetry is the eviction half of the "cache" scope; the lookup
// counters hang off each memo.
type cacheTelemetry struct {
	evictions *telemetry.Counter
	scope     *telemetry.Scope
}

// AttachTelemetry wires the cache set's hit/miss/eviction counters into
// a registry (idempotent per registry; nil is a no-op).
func (c *Caches) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	sc, ss := reg.Scope("cache"), reg.Scope("sym")
	c.packets.hits.Store(sc.Counter("packets_hits"))
	c.packets.misses.Store(sc.Counter("packets_misses"))
	c.stats.hits.Store(sc.Counter("stats_hits"))
	c.stats.misses.Store(sc.Counter("stats_misses"))
	c.solutions.hits.Store(ss.Counter("memo_hits"))
	c.solutions.misses.Store(ss.Counter("memo_misses"))
	c.tel.Store(&cacheTelemetry{evictions: sc.Counter("evictions"), scope: sc})
	st := &symTelemetry{
		explorations: ss.Counter("explorations"),
		paths:        ss.Counter("paths"),
		solverCalls:  ss.Counter("solver_calls"),
		solverSat:    ss.Counter("solver_sat"),
		solverUnsat:  ss.Counter("solver_unsat"),
		classes:      ss.Counter("classes"),
	}
	// A registry attached mid-lifetime reports this set's totals, but may
	// serve other sets too (a Campaign, consecutive Runs): credit by Add,
	// once per (set, registry) pair, so the series stay monotone.
	c.mu.Lock()
	if !slices.Contains(c.credited, reg) {
		c.credited = append(c.credited, reg)
		st.explorations.Add(c.seRuns.Load())
		st.classes.Add(c.classes.Load())
	}
	c.mu.Unlock()
	c.sym.Store(st)
}

// HitCounts reports discover-cache lookup hits and misses since
// telemetry was attached (zeros without a registry).
func (c *Caches) HitCounts() (hits, misses int64) {
	hits = c.packets.hits.Load().Value() + c.stats.hits.Load().Value()
	misses = c.packets.misses.Load().Value() + c.stats.misses.Load().Value()
	return hits, misses
}

// HitRate is the lookup hit fraction (0 before any counted lookup, and
// always 0 without an attached registry). Nil-safe.
func (c *Caches) HitRate() float64 {
	if c == nil {
		return 0
	}
	hits, misses := c.HitCounts()
	if total := hits + misses; total > 0 {
		return float64(hits) / float64(total)
	}
	return 0
}

// Len is the total entry count across the memo maps (discover results
// and memoized solver outcomes).
func (c *Caches) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.lenLocked()
}

func (c *Caches) lenLocked() int {
	return len(c.packets.m) + len(c.stats.m) + len(c.solutions.m)
}

// Evictions counts entries dropped so far by the WithCapacity LRU bound
// (monotonic, observable without a telemetry registry).
func (c *Caches) Evictions() int64 { return c.evictions.Load() }

// Capacity reports the LRU bound (0 = unbounded).
func (c *Caches) Capacity() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.capacity
}

// WithCapacity bounds the memo to at most max entries across all maps,
// evicting least-recently-used entries on insert (and immediately, if
// the memo is already over the new bound). max <= 0 removes the bound.
// Returns c for chaining; safe to call while searches run.
func (c *Caches) WithCapacity(max int) *Caches {
	c.mu.Lock()
	if max < 0 {
		max = 0
	}
	c.capacity = max
	dropped := c.evictOverCapacityLocked()
	c.mu.Unlock()
	c.noteEvictions(dropped, "capacity")
	return c
}

// noteEvictions forwards an eviction count to the attached telemetry.
func (c *Caches) noteEvictions(n int64, why string) {
	if n > 0 {
		t := c.tel.Load()
		t.evictions.Add(n)
		t.scope.Emit(telemetry.TraceCacheEvict, n, why)
	}
}

// evictOverCapacityLocked drops least-recently-used entries, whichever
// memo holds them, until the set fits the bound, returning how many were
// dropped. Caller holds mu and reports the count to telemetry after
// unlocking.
func (c *Caches) evictOverCapacityLocked() int64 {
	var dropped int64
	for c.capacity > 0 && c.lenLocked() > c.capacity {
		var (
			evict  func()
			oldest int64
		)
		for _, m := range [...]lruMemo{&c.packets, &c.stats, &c.solutions} {
			if u, ev := m.oldest(); ev != nil && (evict == nil || u < oldest) {
				evict, oldest = ev, u
			}
		}
		evict()
		dropped++
	}
	c.evictions.Add(dropped)
	return dropped
}

// SERuns reports how many concolic explorations have been performed.
func (c *Caches) SERuns() int64 { return c.seRuns.Load() }

// Classes reports how many packet/stats equivalence classes discovery
// has inserted into the memo so far (monotone; eviction does not
// decrement it).
func (c *Caches) Classes() int64 { return c.classes.Load() }

// noteExploration counts one concolic discover run into SERuns and the
// attached telemetry.
func (c *Caches) noteExploration() {
	c.seRuns.Add(1)
	c.sym.Load().explorations.Inc()
}

// noteClasses counts freshly discovered equivalence classes into the
// monotone counter and the attached telemetry.
func (c *Caches) noteClasses(n int) {
	c.classes.Add(int64(n))
	c.sym.Load().classes.Add(int64(n))
}

// DiscoveredClasses renders every memoized equivalence class as a
// canonical string — packet classes as host/location/app-digest plus
// the header, stats classes as switch/app-digest plus the vector. Two
// cache sets over the same scenario are comparable as string sets: the
// parity suites assert the concolic loop discovers a superset of the
// eager engines' classes.
func (c *Caches) DiscoveredClasses() map[string]bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]bool, len(c.packets.m)+len(c.stats.m))
	for k, n := range c.packets.m {
		prefix := fmt.Sprintf("pkt:h%d@%d.%d:%s:", int(k.host), int(k.loc.Sw), int(k.loc.Port), k.app.Hex())
		for _, hdr := range n.val {
			out[prefix+hdr.String()] = true
		}
	}
	for k, n := range c.stats.m {
		prefix := fmt.Sprintf("stats:sw%d:%s:", int(k.sw), k.app.Hex())
		for _, v := range n.val {
			out[prefix+fmt.Sprintf("%v", v)] = true
		}
	}
	return out
}

// solverMemo adapts the solutions memo to sym.Memo.
type solverMemo struct {
	m *memo[canon.Digest, solution]
}

func (sm solverMemo) Get(key canon.Digest) (sym.Assignment, bool, bool) {
	sol, ok := sm.m.get(key)
	return sol.model, sol.sat, ok
}

func (sm solverMemo) Put(key canon.Digest, model sym.Assignment, sat bool) {
	sm.m.put(key, solution{model, sat})
}

// SolverMemo exposes the cache set's solver-solution memo for
// sym.Explorer wiring.
func (c *Caches) SolverMemo() sym.Memo { return solverMemo{&c.solutions} }

// symHooks builds the Explorer instrumentation callbacks feeding the
// "sym" scope. Memo hits and misses are counted at the memo itself.
func (c *Caches) symHooks() sym.Hooks {
	return sym.Hooks{
		Path: func() { c.sym.Load().paths.Inc() },
		Solve: func(sat, _ bool) {
			st := c.sym.Load()
			st.solverCalls.Inc()
			if sat {
				st.solverSat.Inc()
			} else {
				st.solverUnsat.Inc()
			}
		},
	}
}
