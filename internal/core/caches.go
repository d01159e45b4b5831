package core

import (
	"fmt"
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
// (and its stats and solver twins). The map stays typed by its key so
// the Fingerprint/EnabledInto lookups hash a fixed-width struct and
// allocate nothing; the lock belongs to the owning Caches.
type memo[K comparable, V any] struct {
	c *Caches
	m map[K]V
	// hits/misses are the optional lookup counters (AttachTelemetry);
	// nil means disabled, and a lookup pays one atomic load.
	hits, misses atomic.Pointer[telemetry.Counter]
}

func newMemo[K comparable, V any](c *Caches) memo[K, V] {
	return memo[K, V]{c: c, m: make(map[K]V)}
}

// get looks key up under the shared read lock.
func (m *memo[K, V]) get(key K) (V, bool) {
	m.c.mu.RLock()
	v, ok := m.m[key]
	m.c.mu.RUnlock()
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
	m.c.mu.Lock()
	defer m.c.mu.Unlock()
	if prev, ok := m.m[key]; ok {
		return prev, false
	}
	m.m[key] = v
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
// A set only grows: no entry is ever dropped. That is what keeps a
// search exact, because cache presence feeds state identity
// (System.Fingerprint) and the enabled set (sends once present, the
// discover transition before) — an entry gone between a state's
// admission and its expansion would leave that state offering only its
// discover transition. A caller that must bound memory starts a fresh
// set between searches instead, as `nice serve` does between jobs.
type Caches struct {
	mu      sync.RWMutex
	packets memo[packetsCacheKey, []openflow.Header]
	stats   memo[statsCacheKey, [][]openflow.PortStats]
	// solutions memoizes raw solver outcomes across explorations,
	// keyed by sym.ProblemKey: the structural 128-bit digest of the
	// finite-domain problem, folded a word at a time with no string
	// rendered, as the state fingerprint is.
	solutions memo[canon.Digest, solution]
	seRuns    atomic.Int64 // concolic explorations performed
	// classes counts discovered equivalence classes (packet headers +
	// stats vectors) inserted into the memo, cumulatively.
	classes atomic.Int64

	// sym is the symbolic-execution instrumentation ("sym" scope),
	// attached race-free mid-lifetime (campaigns share one Caches
	// across concurrent jobs). It starts as a bundle of nil counters,
	// which count nothing.
	sym atomic.Pointer[symTelemetry]
	// credit names this set in the ledgers of the registries it has
	// credited (telemetry.Registry.CreditOnce).
	credit *creditToken
}

// creditToken is a cache set's name in a registry's credit ledger. It
// is a separate allocation so that a registry outliving many sets (the
// service's) holds a byte of each, not its memo.
type creditToken struct{ _ byte }

// NewCaches builds an empty discover-cache set.
func NewCaches() *Caches {
	c := &Caches{credit: new(creditToken)}
	c.packets, c.stats, c.solutions = newMemo[packetsCacheKey, []openflow.Header](c),
		newMemo[statsCacheKey, [][]openflow.PortStats](c), newMemo[canon.Digest, solution](c)
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

// AttachTelemetry wires the cache set's lookup and symbolic-execution
// counters into a registry (idempotent per registry; nil is a no-op).
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
	// once per (set, registry) pair, so the series stay monotone. The
	// registry keeps that ledger, so a long-lived set pins none of the
	// registries it has served.
	if reg.CreditOnce(c.credit) {
		st.explorations.Add(c.seRuns.Load())
		st.classes.Add(c.classes.Load())
	}
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
	return len(c.packets.m) + len(c.stats.m) + len(c.solutions.m)
}

// SERuns reports how many concolic explorations have been performed.
func (c *Caches) SERuns() int64 { return c.seRuns.Load() }

// Classes reports how many packet/stats equivalence classes discovery
// has inserted into the memo so far.
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
	for k, hdrs := range c.packets.m {
		prefix := fmt.Sprintf("pkt:h%d@%d.%d:%s:", int(k.host), int(k.loc.Sw), int(k.loc.Port), k.app.Hex())
		for _, hdr := range hdrs {
			out[prefix+hdr.String()] = true
		}
	}
	for k, vecs := range c.stats.m {
		prefix := fmt.Sprintf("stats:sw%d:%s:", int(k.sw), k.app.Hex())
		for _, v := range vecs {
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
