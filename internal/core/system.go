package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/hosts"
	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/internal/cow"
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

// cacheNode is one memo entry. used carries the logical last-use stamp
// for LRU eviction: hits store a fresh clock tick with an atomic write,
// so the read path keeps the shared RLock (a linked-list LRU would need
// the write lock on every fingerprint-path hit, serializing parallel
// workers). Eviction scans for the minimum stamp — O(entries), but it
// only runs on insert-over-capacity, and every insert is preceded by a
// full concolic execution that dwarfs the scan.
type cacheNode struct {
	used atomic.Int64

	packetsVal []openflow.Header
	statsVal   [][]openflow.PortStats

	// solModel/solSat memoize one solver outcome (the solutions map);
	// solModel is immutable once stored.
	solModel sym.Assignment
	solSat   bool
}

// Caches hold the results of discover transitions. They are shared
// across the whole search (not cloned with states): concolic execution
// is deterministic given the controller state, so the cache is a pure
// memo of Figure 5's client.packets map, keyed by the digested
// controller state. All accessors are safe for concurrent use, so one
// Caches may be shared by the parallel workers of internal/search (and
// across sequential searches, to warm later runs).
//
// WithCapacity bounds the memo with an LRU over both maps — the
// multi-tenant setting (internal/service), where unbounded scenario
// churn would otherwise grow the process without limit. Eviction is
// safe at any time, including concurrently with running searches:
// discovery is deterministic, so a re-miss merely re-runs concolic
// execution and re-inserts the identical value. Cache presence feeds
// state identity (System.Fingerprint hashes it), so an eviction
// mid-search can make a revisited state look new and cost re-expansion
// work — never soundness. Size the bound above one search's working
// set and searches stay exact; the LRU only reclaims across scenarios.
type Caches struct {
	mu      sync.RWMutex
	packets map[packetsCacheKey]*cacheNode
	stats   map[statsCacheKey]*cacheNode
	// solutions memoizes raw solver outcomes across explorations,
	// keyed by the 128-bit digest of the finite-domain problem
	// (sym.ProblemKey) — the same keying discipline as the discover
	// maps, under the same LRU bound.
	solutions map[canon.Digest]*cacheNode
	seRuns    atomic.Int64 // concolic explorations performed
	// classes counts discovered equivalence classes (packet headers +
	// stats vectors) inserted into the memo, cumulatively — eviction
	// never decrements it, so it is a monotone discovery counter, not
	// an occupancy gauge.
	classes atomic.Int64

	// capacity bounds len(packets)+len(stats)+len(solutions); 0 =
	// unbounded. clock is the logical LRU timestamp source (monotonic
	// per lookup/insert).
	capacity  int
	clock     atomic.Int64
	evictions atomic.Int64

	// tel is the optional hit/miss instrumentation, attached race-free
	// mid-lifetime (campaigns share one Caches across concurrent jobs).
	// Nil means disabled: the lookup paths pay one atomic load.
	tel atomic.Pointer[cacheTelemetry]
	// sym is the optional symbolic-execution instrumentation ("sym"
	// scope), attached alongside tel by AttachTelemetry.
	sym atomic.Pointer[symTelemetry]
	// credited lists the registries whose sym totals already include
	// this set's pre-attachment discovery (guarded by mu).
	credited []*telemetry.Registry
}

// symTelemetry is the symbolic-execution metric bundle ("sym" scope):
// the concolic loop's observability surface. All counters are monotone.
type symTelemetry struct {
	explorations *telemetry.Counter // discover runs (= SERuns delta)
	paths        *telemetry.Counter // distinct feasible handler paths
	solverCalls  *telemetry.Counter // solver invocations (memo included)
	solverSat    *telemetry.Counter
	solverUnsat  *telemetry.Counter
	memoHits     *telemetry.Counter // solver calls answered by the memo
	memoMisses   *telemetry.Counter
	classes      *telemetry.Counter // equivalence classes discovered
}

// cacheTelemetry is the discover-cache metric bundle ("cache" scope).
type cacheTelemetry struct {
	packetsHits   *telemetry.Counter
	packetsMisses *telemetry.Counter
	statsHits     *telemetry.Counter
	statsMisses   *telemetry.Counter
	evictions     *telemetry.Counter
	scope         *telemetry.Scope
}

// AttachTelemetry wires the cache set's hit/miss/eviction counters into
// a registry (idempotent per registry; nil is a no-op).
func (c *Caches) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	sc := reg.Scope("cache")
	c.tel.Store(&cacheTelemetry{
		packetsHits:   sc.Counter("packets_hits"),
		packetsMisses: sc.Counter("packets_misses"),
		statsHits:     sc.Counter("stats_hits"),
		statsMisses:   sc.Counter("stats_misses"),
		evictions:     sc.Counter("evictions"),
		scope:         sc,
	})
	ss := reg.Scope("sym")
	st := &symTelemetry{
		explorations: ss.Counter("explorations"),
		paths:        ss.Counter("paths"),
		solverCalls:  ss.Counter("solver_calls"),
		solverSat:    ss.Counter("solver_sat"),
		solverUnsat:  ss.Counter("solver_unsat"),
		memoHits:     ss.Counter("memo_hits"),
		memoMisses:   ss.Counter("memo_misses"),
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
	t := c.tel.Load()
	if t == nil {
		return 0, 0
	}
	hits = t.packetsHits.Value() + t.statsHits.Value()
	misses = t.packetsMisses.Value() + t.statsMisses.Value()
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

// Prune empties the memo when it holds more than max entries, returning
// the number dropped (0 when under the bound). It is safe to call at
// any time, including concurrently with running searches: a search
// that loses entries re-runs the deterministic discovery and merely
// does extra work (see the Caches doc). Long-lived front ends that
// keep caches warm across many runs (campaigns, the checking service)
// call it — or set WithCapacity for incremental LRU eviction instead
// of wholesale flushes.
func (c *Caches) Prune(max int) int {
	c.mu.Lock()
	n := len(c.packets) + len(c.stats) + len(c.solutions)
	if n <= max {
		c.mu.Unlock()
		return 0
	}
	c.packets = make(map[packetsCacheKey]*cacheNode)
	c.stats = make(map[statsCacheKey]*cacheNode)
	c.solutions = make(map[canon.Digest]*cacheNode)
	c.evictions.Add(int64(n))
	c.mu.Unlock()
	if t := c.tel.Load(); t != nil {
		t.evictions.Add(int64(n))
		t.scope.Emit(telemetry.TraceCacheEvict, int64(n), "prune")
	}
	return n
}

// Len is the total entry count across the memo maps (discover results
// and memoized solver outcomes).
func (c *Caches) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.packets) + len(c.stats) + len(c.solutions)
}

// Evictions counts entries dropped so far by Prune and by the
// WithCapacity LRU bound (monotonic, observable without a telemetry
// registry).
func (c *Caches) Evictions() int64 { return c.evictions.Load() }

// Capacity reports the LRU bound (0 = unbounded).
func (c *Caches) Capacity() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.capacity
}

// WithCapacity bounds the memo to at most max entries across both maps,
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
	if n <= 0 {
		return
	}
	if t := c.tel.Load(); t != nil {
		t.evictions.Add(n)
		t.scope.Emit(telemetry.TraceCacheEvict, n, why)
	}
}

// touch stamps a node as just-used. Called under RLock: the stamp is an
// atomic write, so concurrent hits race benignly (either order is a
// valid recency).
func (c *Caches) touch(n *cacheNode) { n.used.Store(c.clock.Add(1)) }

// evictOverCapacityLocked drops least-recently-used entries until the
// memo fits the bound, returning how many were dropped. Caller holds mu
// and reports the count to telemetry after unlocking.
func (c *Caches) evictOverCapacityLocked() int64 {
	var dropped int64
	for c.capacity > 0 && len(c.packets)+len(c.stats)+len(c.solutions) > c.capacity {
		const (
			kindPackets = iota
			kindStats
			kindSolution
		)
		var (
			oldest  int64
			oldPkey packetsCacheKey
			oldSkey statsCacheKey
			oldDkey canon.Digest
			kind    int
			found   bool
		)
		for k, n := range c.packets {
			if u := n.used.Load(); !found || u < oldest {
				oldest, oldPkey, kind, found = u, k, kindPackets, true
			}
		}
		for k, n := range c.stats {
			if u := n.used.Load(); !found || u < oldest {
				oldest, oldSkey, kind, found = u, k, kindStats, true
			}
		}
		for k, n := range c.solutions {
			if u := n.used.Load(); !found || u < oldest {
				oldest, oldDkey, kind, found = u, k, kindSolution, true
			}
		}
		if !found {
			break
		}
		switch kind {
		case kindStats:
			delete(c.stats, oldSkey)
		case kindSolution:
			delete(c.solutions, oldDkey)
		default:
			delete(c.packets, oldPkey)
		}
		dropped++
	}
	c.evictions.Add(dropped)
	return dropped
}

// NewCaches builds an empty, unbounded discover-cache set.
func NewCaches() *Caches {
	return &Caches{
		packets:   make(map[packetsCacheKey]*cacheNode),
		stats:     make(map[statsCacheKey]*cacheNode),
		solutions: make(map[canon.Digest]*cacheNode),
	}
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
	if st := c.sym.Load(); st != nil {
		st.explorations.Inc()
	}
}

// noteClasses counts freshly discovered equivalence classes into the
// monotone counter and the attached telemetry.
func (c *Caches) noteClasses(n int) {
	if n <= 0 {
		return
	}
	c.classes.Add(int64(n))
	if st := c.sym.Load(); st != nil {
		st.classes.Add(int64(n))
	}
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
	out := make(map[string]bool, len(c.packets)+len(c.stats))
	for k, n := range c.packets {
		prefix := fmt.Sprintf("pkt:h%d@%d.%d:%s:", int(k.host), int(k.loc.Sw), int(k.loc.Port), k.app.Hex())
		for _, hdr := range n.packetsVal {
			out[prefix+hdr.String()] = true
		}
	}
	for k, n := range c.stats {
		prefix := fmt.Sprintf("stats:sw%d:%s:", int(k.sw), k.app.Hex())
		for _, v := range n.statsVal {
			out[prefix+fmt.Sprintf("%v", v)] = true
		}
	}
	return out
}

// getSolution looks up a memoized solver outcome.
func (c *Caches) getSolution(key canon.Digest) (sym.Assignment, bool, bool) {
	c.mu.RLock()
	n, ok := c.solutions[key]
	var (
		model sym.Assignment
		sat   bool
	)
	if ok {
		model, sat = n.solModel, n.solSat
		c.touch(n)
	}
	c.mu.RUnlock()
	if st := c.sym.Load(); st != nil {
		if ok {
			st.memoHits.Inc()
		} else {
			st.memoMisses.Inc()
		}
	}
	return model, sat, ok
}

// putSolution memoizes a solver outcome; the first writer wins.
func (c *Caches) putSolution(key canon.Digest, model sym.Assignment, sat bool) {
	c.mu.Lock()
	if _, ok := c.solutions[key]; ok {
		c.mu.Unlock()
		return
	}
	n := &cacheNode{solModel: model, solSat: sat}
	c.touch(n)
	c.solutions[key] = n
	dropped := c.evictOverCapacityLocked()
	c.mu.Unlock()
	c.noteEvictions(dropped, "lru")
}

// solverMemo adapts the Caches' solutions map to sym.Memo.
type solverMemo struct{ cc *Caches }

func (m solverMemo) Get(key canon.Digest) (sym.Assignment, bool, bool) {
	return m.cc.getSolution(key)
}

func (m solverMemo) Put(key canon.Digest, model sym.Assignment, sat bool) {
	m.cc.putSolution(key, model, sat)
}

// SolverMemo exposes the cache set's solver-solution memo for
// sym.Explorer wiring.
func (c *Caches) SolverMemo() sym.Memo { return solverMemo{cc: c} }

// symHooks builds the Explorer instrumentation callbacks feeding the
// "sym" scope. With no registry attached the counters are skipped, but
// the hooks still fire (they are only constructed on discover paths,
// which already dwarf two nil checks).
func (c *Caches) symHooks() sym.Hooks {
	return sym.Hooks{
		Path: func() {
			if st := c.sym.Load(); st != nil {
				st.paths.Inc()
			}
		},
		Solve: func(sat, memoHit bool) {
			st := c.sym.Load()
			if st == nil {
				return
			}
			st.solverCalls.Inc()
			if sat {
				st.solverSat.Inc()
			} else {
				st.solverUnsat.Inc()
			}
			_ = memoHit // hit/miss is counted at the memo itself
		},
	}
}

func (c *Caches) getPackets(key packetsCacheKey) ([]openflow.Header, bool) {
	c.mu.RLock()
	n, ok := c.packets[key]
	var v []openflow.Header
	if ok {
		v = n.packetsVal
		c.touch(n)
	}
	c.mu.RUnlock()
	if t := c.tel.Load(); t != nil {
		if ok {
			t.packetsHits.Inc()
		} else {
			t.packetsMisses.Inc()
		}
	}
	return v, ok
}

// putPackets inserts a discovery result; the first writer wins, and the
// canonical (winning) value is returned so racing workers agree.
func (c *Caches) putPackets(key packetsCacheKey, v []openflow.Header) []openflow.Header {
	c.mu.Lock()
	if prev, ok := c.packets[key]; ok {
		c.mu.Unlock()
		return prev.packetsVal
	}
	n := &cacheNode{packetsVal: v}
	c.touch(n)
	c.packets[key] = n
	dropped := c.evictOverCapacityLocked()
	c.mu.Unlock()
	c.noteEvictions(dropped, "lru")
	c.noteClasses(len(v))
	return v
}

func (c *Caches) getStats(key statsCacheKey) ([][]openflow.PortStats, bool) {
	c.mu.RLock()
	n, ok := c.stats[key]
	var v [][]openflow.PortStats
	if ok {
		v = n.statsVal
		c.touch(n)
	}
	c.mu.RUnlock()
	if t := c.tel.Load(); t != nil {
		if ok {
			t.statsHits.Inc()
		} else {
			t.statsMisses.Inc()
		}
	}
	return v, ok
}

func (c *Caches) putStats(key statsCacheKey, v [][]openflow.PortStats) [][]openflow.PortStats {
	c.mu.Lock()
	if prev, ok := c.stats[key]; ok {
		c.mu.Unlock()
		return prev.statsVal
	}
	n := &cacheNode{statsVal: v}
	c.touch(n)
	c.stats[key] = n
	dropped := c.evictOverCapacityLocked()
	c.mu.Unlock()
	c.noteEvictions(dropped, "lru")
	c.noteClasses(len(v))
	return v
}

// System is one explored state of the modelled network: switches,
// controller runtime (application + channels), hosts and property
// observers. Systems fork copy-on-write as the search explores (the
// internal/cow protocol: Clone is O(#components) pointer copies, and a
// component deep-copies lazily when first mutated) and are hashed for
// the explored-state set; WithDeepClone retains the eager deep-copy
// forking path as the differential reference.
type System struct {
	cfg    *Config
	caches *Caches

	// switches and hosts are stored as slices parallel to the sorted
	// swIDs / hostIDs (not maps): forking copies a pointer slice
	// instead of rebuilding a map, and the ID populations are tiny, so
	// ID lookups scan.
	switches []*openflow.Switch
	swIDs    []openflow.SwitchID
	ctrl     *controller.Runtime
	hosts    []*hosts.Host
	hostIDs  []openflow.HostID
	alloc    openflow.IDAlloc
	props    []Property

	// epoch is this System's current copy-on-write ownership epoch: a
	// component whose tag matches it is exclusively owned and may be
	// mutated in place; anything else must be forked first (the
	// ensureOwned step of internal/cow). Clone retires the epoch on
	// both sides, freezing every shared component.
	epoch uint64
	// propsEpoch marks the props slice owned when equal to epoch;
	// propsOwned is the per-property ownership bitmask within an owned
	// slice (newSystem caps properties at 64).
	propsEpoch uint64
	propsOwned uint64
	// groupEpoch marks groupCounts owned when equal to epoch.
	groupEpoch uint64
	// cachesWarm notes that every memoized component key is valid (set
	// by warmKeyCaches and the incremental Fingerprint, cleared by the
	// ensureOwned hooks): Clone skips the warming walk entirely while
	// nothing has mutated since the last fingerprint.
	cachesWarm bool

	// lastGroup is the FLOW-IR scheduling mark: the effective flow
	// group of the last packet-sending (or grouped environment)
	// transition. Groups below it are suppressed, fixing one relative
	// order between independent groups.
	lastGroup string
	// groupCounts numbers flow instances per group key (a packet whose
	// GroupKeyFunc reports newInstance bumps its key's counter).
	// groupDigest is its order-free hash — the wrapping sum of
	// groupEntryHash over the entries, adjusted at the one site that
	// writes the map — so Fingerprint neither sorts nor walks it.
	groupCounts map[string]int
	groupDigest uint64
	// faults tracks the per-execution fault-budget usage.
	faults faultState

	// met is the optional cow instrumentation bundle (Session.NewSystem),
	// shared by the whole search: Clone hands it to every fork, Release
	// drops it. Nil — the default — keeps every count site to one branch.
	met *systemTelemetry
}

// NewSystem builds the initial state: switches constructed from the
// topology, hosts cloned from their prototypes, and the application
// booted by dispatching a switch_join per switch, with all resulting
// messages applied synchronously (the network is fully joined before
// exploration starts; see DESIGN.md).
func NewSystem(cfg *Config) *System {
	return newSystem(cfg, NewCaches())
}

// NewSystemWith builds the initial state against a caller-supplied
// discover-cache set. The parallel search engine uses it so all workers
// share one memo; tests use it to warm caches across runs.
func NewSystemWith(cfg *Config, cc *Caches) *System {
	return newSystem(cfg, cc)
}

func newSystem(cfg *Config, cc *Caches) *System {
	if cfg.Topo == nil || cfg.App == nil {
		panic("core: Config.Topo and Config.App are required")
	}
	if len(cfg.Properties) > 64 {
		panic("core: at most 64 properties per Config (ownership bitmask)")
	}
	epoch := cow.NextEpoch()
	s := &System{
		cfg:         cfg,
		caches:      cc,
		ctrl:        controller.NewRuntime(cfg.App.Clone()),
		alloc:       *openflow.NewIDAlloc(),
		groupCounts: make(map[string]int),
		epoch:       epoch,
		propsEpoch:  epoch,
		propsOwned:  ^uint64(0),
		groupEpoch:  epoch,
	}
	s.ctrl.SetOwner(epoch)
	for _, spec := range cfg.Topo.Switches() {
		s.swIDs = append(s.swIDs, spec.ID)
	}
	sort.Slice(s.swIDs, func(i, j int) bool { return s.swIDs[i] < s.swIDs[j] })
	s.switches = make([]*openflow.Switch, len(s.swIDs))
	for _, spec := range cfg.Topo.Switches() {
		sw := openflow.NewSwitch(spec.ID, spec.Ports)
		sw.SetOwner(epoch)
		s.switches[s.swIndex(spec.ID)] = sw
	}
	for _, h := range cfg.Hosts {
		s.hostIDs = append(s.hostIDs, h.ID)
	}
	sort.Slice(s.hostIDs, func(i, j int) bool { return s.hostIDs[i] < s.hostIDs[j] })
	s.hosts = make([]*hosts.Host, len(s.hostIDs))
	for _, h := range cfg.Hosts {
		hc := h.Clone()
		hc.SetOwner(epoch)
		s.hosts[s.hostIndex(hc.ID)] = hc
	}
	for _, p := range cfg.Properties {
		s.props = append(s.props, p.Clone())
	}

	// Port link state: a port is up when a switch-switch link or a
	// host is attached. Flooding covers up ports only.
	for _, spec := range cfg.Topo.Switches() {
		for _, p := range spec.Ports {
			if _, ok := cfg.Topo.Peer(topo.PortKey{Sw: spec.ID, Port: p}); ok {
				s.Switch(spec.ID).SetPortUp(p, true)
			}
		}
	}
	for _, h := range s.hosts {
		s.Switch(h.Loc.Sw).SetPortUp(h.Loc.Port, true)
	}

	// Boot: all switches join, and the join handlers' output (e.g. the
	// TE application's initial routing rules) applies synchronously.
	var boot []Event
	for _, id := range s.swIDs {
		s.ctrl.Dispatch(openflow.Msg{Type: openflow.MsgSwitchJoin, Switch: id})
	}
	s.drainControllerChannels(&boot, true)
	for _, f := range s.CheckEvents(boot) {
		panic(fmt.Sprintf("core: property %s violated during boot: %v", f.Property, f.Err))
	}
	return s
}

// Clone forks the state (sharing the immutable config and the monotonic
// discover caches). By default the fork is copy-on-write (the
// internal/cow protocol): O(#components) pointer copies now, with each
// component deep-copied lazily by the ensureOwned hooks at its mutation
// sites. WithDeepClone selects the retained eager deep-copy path —
// the differential reference COW is tested against.
func (s *System) Clone() *System {
	if s.cfg.deepClone {
		return s.deepClone()
	}
	if m := s.met; m != nil {
		m.forks.Inc()
		if s.cachesWarm {
			// Every memoized component key is still valid — the
			// fingerprint-cache hit that lets this fork skip the
			// warming walk below.
			m.forksWarm.Inc()
		}
	}
	// Freeze the shared state: warm every memoized component key first
	// (so frozen components are only ever read, never filled, even
	// under the parallel engines), then retire this System's epoch so
	// no component tag matches either side — the first write on either
	// side forks the component it touches.
	if !s.cachesWarm {
		s.warmKeyCaches()
		s.cachesWarm = true
	}
	s.epoch = cow.NextEpoch()
	c, _ := systemPool.Get().(*System)
	if c == nil {
		c = &System{}
	} else if s.met != nil {
		s.met.recycles.Inc()
	}
	c.cfg = s.cfg
	c.caches = s.caches
	c.switches = append(c.switches[:0], s.switches...)
	c.swIDs = s.swIDs
	c.ctrl = s.ctrl
	c.hosts = append(c.hosts[:0], s.hosts...)
	c.hostIDs = s.hostIDs
	c.alloc = s.alloc
	c.props = s.props
	c.epoch = cow.NextEpoch()
	c.propsEpoch = 0
	c.propsOwned = 0
	c.groupEpoch = 0
	c.lastGroup = s.lastGroup
	c.groupCounts = s.groupCounts
	c.groupDigest = s.groupDigest
	c.faults = s.faults
	c.cachesWarm = true
	c.met = s.met
	return c
}

// systemPool recycles System structs and their component-pointer slice
// backings across forks: under copy-on-write these are the only
// allocations Clone makes, and the engines know exactly when a fork is
// dead (fully expanded, revisited, or pruned).
var systemPool = sync.Pool{New: func() any { return &System{} }}

// Release returns a dead System's struct and slice backings to the fork
// pool. The caller asserts nothing references s anymore: its components
// live on in any forks that borrowed them (only the struct and the
// pointer slices are recycled), but s itself must never be used again.
// Releasing is optional — unreleased Systems are ordinary garbage.
func (s *System) Release() {
	if s.met != nil {
		s.met.releases.Inc()
		s.met = nil
	}
	s.cfg = nil
	s.caches = nil
	s.ctrl = nil
	s.swIDs = nil
	s.hostIDs = nil
	s.props = nil
	s.groupCounts = nil
	s.lastGroup = ""
	for i := range s.switches {
		s.switches[i] = nil
	}
	s.switches = s.switches[:0]
	for i := range s.hosts {
		s.hosts[i] = nil
	}
	s.hosts = s.hosts[:0]
	systemPool.Put(s)
}

// deepClone is the retained deep-copy forking path: every component is
// copied eagerly and owned by the child outright.
func (s *System) deepClone() *System {
	epoch := cow.NextEpoch()
	c := &System{
		cfg:         s.cfg,
		caches:      s.caches,
		switches:    make([]*openflow.Switch, len(s.switches)),
		swIDs:       s.swIDs,
		ctrl:        s.ctrl.Clone(),
		hosts:       make([]*hosts.Host, len(s.hosts)),
		hostIDs:     s.hostIDs,
		alloc:       s.alloc,
		epoch:       epoch,
		propsEpoch:  epoch,
		propsOwned:  ^uint64(0),
		groupEpoch:  epoch,
		lastGroup:   s.lastGroup,
		groupCounts: make(map[string]int, len(s.groupCounts)),
		groupDigest: s.groupDigest,
		faults:      s.faults,
		met:         s.met,
	}
	if s.met != nil {
		s.met.forks.Inc()
	}
	c.ctrl.SetOwner(epoch)
	for k, v := range s.groupCounts {
		c.groupCounts[k] = v
	}
	for i, sw := range s.switches {
		n := sw.Clone()
		n.SetOwner(epoch)
		c.switches[i] = n
	}
	for i, h := range s.hosts {
		n := h.Clone()
		n.SetOwner(epoch)
		c.hosts[i] = n
	}
	c.props = make([]Property, len(s.props))
	for i, p := range s.props {
		c.props[i] = p.Clone()
	}
	return c
}

// warmKeyCaches fills every memoized component hash (a no-op when
// already warm), maintaining cow invariant 3: at fork time all caches
// are valid, so frozen shared components are never written — not even
// by their own memoization — while forks read them concurrently.
func (s *System) warmKeyCaches() {
	canonical, hashCounters := s.cfg.tableHashMode()
	for _, sw := range s.switches {
		sw.KeyHash64(canonical, hashCounters)
	}
	s.ctrl.AppKeyDigest()
	s.ctrl.InKeyHash64()
	s.ctrl.OutKeyHash64()
	for _, h := range s.hosts {
		h.KeyHash64()
	}
	for _, p := range s.props {
		_ = p.StateKey()
		if kh, ok := p.(KeyHasher); ok {
			// Fingerprint reads the memoized hash, so it must be warm
			// too — a custom property may memoize it separately from
			// the key string.
			_ = kh.StateKeyHash64()
		}
	}
}

// swIndex resolves a switch ID to its slice position (the populations
// are tiny; a scan beats a map).
func (s *System) swIndex(id openflow.SwitchID) int {
	for i, sid := range s.swIDs {
		if sid == id {
			return i
		}
	}
	panic(fmt.Sprintf("core: unknown switch %v", id))
}

// hostIndex is swIndex for hosts.
func (s *System) hostIndex(id openflow.HostID) int {
	for i, hid := range s.hostIDs {
		if hid == id {
			return i
		}
	}
	panic(fmt.Sprintf("core: unknown host %v", id))
}

// ownSwitch returns switch id, forking it first unless it is already
// exclusively owned at the current epoch — the ensureOwned hook every
// switch mutation site goes through.
func (s *System) ownSwitch(id openflow.SwitchID) *openflow.Switch {
	s.cachesWarm = false
	i := s.swIndex(id)
	sw := s.switches[i]
	if !sw.OwnedBy(s.epoch) {
		sw = sw.Fork(s.epoch)
		s.switches[i] = sw
		if s.met != nil {
			s.met.copies.Inc()
		}
	}
	return sw
}

// ownHost is ownSwitch for hosts.
func (s *System) ownHost(id openflow.HostID) *hosts.Host {
	s.cachesWarm = false
	i := s.hostIndex(id)
	h := s.hosts[i]
	if !h.OwnedBy(s.epoch) {
		h = h.Fork(s.epoch)
		s.hosts[i] = h
		if s.met != nil {
			s.met.copies.Inc()
		}
	}
	return h
}

// ownCtrl is ownSwitch for the controller runtime.
func (s *System) ownCtrl() *controller.Runtime {
	s.cachesWarm = false
	if !s.ctrl.OwnedBy(s.epoch) {
		s.ctrl = s.ctrl.Fork(s.epoch)
		if s.met != nil {
			s.met.copies.Inc()
		}
	}
	return s.ctrl
}

// ownProp returns property i for mutation (event delivery), copying the
// props slice and the property itself on first use after a fork.
func (s *System) ownProp(i int) Property {
	s.cachesWarm = false
	if s.propsEpoch != s.epoch {
		s.props = append([]Property(nil), s.props...)
		s.propsOwned = 0
		s.propsEpoch = s.epoch
	}
	if s.propsOwned&(1<<uint(i)) == 0 {
		s.props[i] = forkProperty(s.props[i])
		s.propsOwned |= 1 << uint(i)
		if s.met != nil {
			s.met.copies.Inc()
		}
	}
	return s.props[i]
}

// ownGroupCounts copies the shared FLOW-IR instance counters before the
// first write after a fork.
func (s *System) ownGroupCounts() {
	if s.groupEpoch == s.epoch {
		return
	}
	m := make(map[string]int, len(s.groupCounts))
	for k, v := range s.groupCounts {
		m[k] = v
	}
	s.groupCounts = m
	s.groupEpoch = s.epoch
	if s.met != nil {
		s.met.copies.Inc()
	}
}

// Switch exposes a switch to properties and tooling (nil when unknown).
func (s *System) Switch(id openflow.SwitchID) *openflow.Switch {
	for i, sid := range s.swIDs {
		if sid == id {
			return s.switches[i]
		}
	}
	return nil
}

// SwitchIDs lists switches in sorted order.
func (s *System) SwitchIDs() []openflow.SwitchID { return s.swIDs }

// Host exposes a host's dynamic state (nil when unknown).
func (s *System) Host(id openflow.HostID) *hosts.Host {
	for i, hid := range s.hostIDs {
		if hid == id {
			return s.hosts[i]
		}
	}
	return nil
}

// HostIDs lists hosts in sorted order.
func (s *System) HostIDs() []openflow.HostID { return s.hostIDs }

// Controller exposes the controller runtime.
func (s *System) Controller() *controller.Runtime { return s.ctrl }

// Config exposes the checking configuration.
func (s *System) Config() *Config { return s.cfg }

// Properties exposes this state's property instances.
func (s *System) Properties() []Property { return s.props }

// OracleKey renders the full system state from scratch as one canonical
// string, bypassing every component hash cache and every property and
// application key memo — the reference the structural fingerprint is
// differentially tested against (WithOracleHash hashes it).
func (s *System) OracleKey() string {
	var b strings.Builder
	canonical, hashCounters := s.cfg.tableHashMode()
	for _, sw := range s.switches {
		b.WriteString(sw.StateKey(canonical, hashCounters))
		b.WriteByte('\n')
	}
	b.WriteString(s.ctrl.StateKey())
	b.WriteByte('\n')
	for _, h := range s.hosts {
		b.WriteString(h.StateKey())
		b.WriteByte('\n')
	}
	for _, p := range s.props {
		b.WriteString(p.Name())
		b.WriteByte(':')
		b.WriteString(freshPropKey(p))
		b.WriteByte('\n')
	}
	// The relevant-packet caches gate which transitions are enabled
	// (discover vs send), so cache presence for the *current* state is
	// part of its identity — mirroring Figure 5's client.packets map.
	if !s.cfg.DisableSE {
		app := canon.Hash128(s.ctrl.App.StateKey())
		for _, h := range s.hosts {
			if pkts, ok := s.caches.getPackets(packetsKeyWith(h, app)); ok {
				fmt.Fprintf(&b, "se:%d=%d\n", int(h.ID), len(pkts))
			}
		}
		for _, sw := range s.swIDs {
			if vs, ok := s.caches.getStats(statsCacheKey{sw: sw, app: app}); ok {
				fmt.Fprintf(&b, "ses:%d=%d\n", int(sw), len(vs))
			}
		}
	}
	fmt.Fprintf(&b, "fg:%s %s %s", s.lastGroup, canon.String(s.groupCounts), s.faults.key())
	return b.String()
}

// Hash returns the hex digest form of Fingerprint (hash-based state
// matching, §6); the explored-state sets use the raw Fingerprint.
func (s *System) Hash() string { return s.Fingerprint().Hex() }

// AppDigest is the 128-bit digest of the controller application's
// canonical state — the discover-cache key component the concolic loop
// uses to recognize novel controller states (its feedback signal).
func (s *System) AppDigest() canon.Digest { return s.ctrl.AppKeyDigest() }

// PacketClassesCached reports whether discover_packets results for host
// id are already memoized at this state (always true with SE disabled —
// there is nothing to discover).
func (s *System) PacketClassesCached(id openflow.HostID) bool {
	if s.cfg.DisableSE {
		return true
	}
	h := s.Host(id)
	if h == nil {
		return true
	}
	_, ok := s.caches.getPackets(s.packetsKey(h))
	return ok
}

// DiscoverPacketClasses runs (or recalls) discover_packets for host id
// at this state, memoizing the result, and returns the number of packet
// equivalence classes. The concolic loop calls it proactively for hosts
// the eager engines never reach (hosts that cannot send at the states
// where the controller state is fresh), which is how the loop explores
// handler paths eager discovery misses. Discovery only reads the
// system (handler effects land on a cloned application), so concurrent
// calls are safe; racing writers agree via the first-writer-wins memo.
func (s *System) DiscoverPacketClasses(id openflow.HostID) int {
	if s.cfg.DisableSE {
		return 0
	}
	h := s.Host(id)
	if h == nil {
		return 0
	}
	key := s.packetsKey(h)
	if pkts, ok := s.caches.getPackets(key); ok {
		return len(pkts)
	}
	return len(s.caches.putPackets(key, s.discoverPackets(h)))
}

// StatsClassesCached reports whether discover_stats results for switch
// sw are already memoized at this state (always true with SE disabled).
func (s *System) StatsClassesCached(sw openflow.SwitchID) bool {
	if s.cfg.DisableSE {
		return true
	}
	_, ok := s.caches.getStats(s.statsKey(sw))
	return ok
}

func (s *System) packetsKey(h *hosts.Host) packetsCacheKey {
	return packetsCacheKey{host: h.ID, loc: h.Loc, app: s.ctrl.AppKeyDigest()}
}

func packetsKeyWith(h *hosts.Host, app canon.Digest) packetsCacheKey {
	return packetsCacheKey{host: h.ID, loc: h.Loc, app: app}
}

func (s *System) statsKey(sw openflow.SwitchID) statsCacheKey {
	return statsCacheKey{sw: sw, app: s.ctrl.AppKeyDigest()}
}

// Enabled enumerates the enabled transitions in deterministic order,
// already filtered and ordered by the active search strategies.
func (s *System) Enabled() []Transition { return s.EnabledInto(nil) }

// EnabledInto is Enabled with a caller-supplied buffer: transitions are
// appended to buf (reusing its backing array), so hot loops can pool
// the allocation. Transitions are self-contained values — callers may
// copy any of them and release the buffer.
func (s *System) EnabledInto(buf []Transition) []Transition {
	ts := buf[:0]

	// Host transitions.
	for i, h := range s.hosts {
		id := s.hostIDs[i]
		if h.CanSend() {
			if s.cfg.DisableSE {
				for _, hdr := range h.NextRepertoire() {
					ts = append(ts, Transition{Kind: THostSend, Host: id, Hdr: hdr})
				}
			} else if pkts, ok := s.caches.getPackets(s.packetsKey(h)); ok {
				for _, hdr := range pkts {
					ts = append(ts, Transition{Kind: THostSend, Host: id, Hdr: hdr})
				}
			} else {
				ts = append(ts, Transition{Kind: THostDiscover, Host: id})
			}
		}
		if h.CanReply() {
			ts = append(ts, Transition{Kind: THostReply, Host: id, Hdr: h.PendingReplies[0]})
		}
		if len(h.MoveTargets) > 0 {
			ts = append(ts, Transition{Kind: THostMove, Host: id, MoveTo: h.MoveTargets[0]})
		}
	}

	// Controller transitions. Iterating the sorted switch IDs and
	// peeking each channel head is equivalent to PendingIn() (messages
	// only come from known switches) without allocating the ID list.
	for _, sw := range s.swIDs {
		head, ok := s.ctrl.HeadIn(sw)
		if !ok {
			continue
		}
		if head.Type == openflow.MsgStatsReply && !s.cfg.DisableSE && !s.cfg.NoDelay {
			if variants, ok := s.caches.getStats(s.statsKey(sw)); ok {
				for _, v := range variants {
					ts = append(ts, Transition{Kind: TCtrlProcessStats, Sw: sw, Stats: v})
				}
			} else {
				ts = append(ts, Transition{Kind: TCtrlDiscoverStats, Sw: sw})
			}
			continue
		}
		ts = append(ts, Transition{Kind: TCtrlDispatch, Sw: sw})
	}

	// Environment transitions.
	if env, ok := s.ctrl.App.(controller.EnvApp); ok {
		for _, name := range env.EnvEvents() {
			ts = append(ts, Transition{Kind: TCtrlEnv, Env: name})
		}
	}

	// Switch transitions.
	for i, sw := range s.switches {
		id := s.swIDs[i]
		if !sw.Alive {
			continue
		}
		if s.cfg.MicroSteps {
			for _, p := range sw.PendingPorts() {
				ts = append(ts, Transition{Kind: TSwitchProcessPort, Sw: id, Port: p})
			}
		} else if len(sw.PendingPorts()) > 0 {
			ts = append(ts, Transition{Kind: TSwitchProcess, Sw: id})
		}
		if head, ok := s.ctrl.HeadOut(id); ok {
			ts = append(ts, Transition{Kind: TSwitchOF, Sw: id, seq: head.Seq})
		}
		if s.cfg.EnableTimers && sw.Table.Len() > 0 {
			ts = append(ts, Transition{Kind: TSwitchTick, Sw: id})
		}
	}

	ts = s.faultTransitions(ts)
	ts = s.applyFlowIR(ts)
	ts = s.applyUnusual(ts)
	return ts
}

// applyFlowIR suppresses packet-sending (and grouped environment)
// transitions whose effective flow group precedes the scheduling mark,
// exploring exactly one relative ordering between independent groups
// (§4 FLOW-IR).
func (s *System) applyFlowIR(ts []Transition) []Transition {
	if s.cfg.FlowGroupKey == nil {
		return ts
	}
	out := ts[:0]
	for _, t := range ts {
		switch t.Kind {
		case THostSend, THostReply:
			if s.effectiveGroup(t.Hdr, false) < s.lastGroup {
				continue
			}
		case TCtrlEnv:
			if s.cfg.EnvGroupKey != nil && s.cfg.EnvGroupKey(t.Env) < s.lastGroup {
				continue
			}
		}
		out = append(out, t)
	}
	return out
}

// groupEntryHash is one groupCounts entry's term of groupDigest.
func groupEntryHash(key string, n int) uint64 {
	return canon.NewMix(0).Str(key).Word(uint64(n)).Sum()
}

// effectiveGroup computes a header's instanced group key; when advance
// is true a new-instance packet bumps its key's counter first.
func (s *System) effectiveGroup(hdr openflow.Header, advance bool) string {
	key, newInstance := s.cfg.FlowGroupKey(hdr)
	n := s.groupCounts[key]
	if newInstance {
		if advance {
			s.ownGroupCounts()
			s.groupCounts[key] = n + 1
			if n > 0 {
				s.groupDigest -= groupEntryHash(key, n)
			}
			s.groupDigest += groupEntryHash(key, n+1)
		}
		n++
	}
	b := make([]byte, 0, len(key)+5)
	b = append(b, key...)
	b = append(b, '#')
	if n < 1000 { // zero-pad to 4 digits, as %04d did
		b = append(b, '0')
		if n < 100 {
			b = append(b, '0')
		}
		if n < 10 {
			b = append(b, '0')
		}
	}
	b = strconv.AppendInt(b, int64(n), 10)
	return string(b)
}

// applyUnusual reorders exploration so that unusual delays come first:
// packet and host transitions before controller→switch deliveries, and
// deliveries in reverse issue order across switches (§4 UNUSUAL). It is
// a depth-first priority, not a filter — full searches still cover every
// ordering; violation hunts reach races much sooner.
func (s *System) applyUnusual(ts []Transition) []Transition {
	if !s.cfg.Unusual {
		return ts
	}
	sort.SliceStable(ts, func(i, j int) bool {
		pi, pj := unusualClass(ts[i]), unusualClass(ts[j])
		if pi != pj {
			return pi < pj
		}
		if ts[i].Kind == TSwitchOF && ts[j].Kind == TSwitchOF {
			return ts[i].seq > ts[j].seq // most recently issued first
		}
		return false
	})
	return ts
}

func unusualClass(t Transition) int {
	switch t.Kind {
	case TSwitchOF:
		return 2
	case TCtrlDispatch, TCtrlProcessStats, TCtrlDiscoverStats:
		return 1
	default:
		return 0
	}
}

// Quiescent reports whether the state has no enabled transitions.
func (s *System) Quiescent() bool { return len(s.Enabled()) == 0 }

// Apply executes one transition in place, returning its events.
func (s *System) Apply(t Transition) []Event { return s.ApplyInto(t, nil) }

// ApplyInto is Apply with a caller-supplied event buffer: events are
// appended to buf (reusing its backing array), so hot loops can pool
// the allocation. The returned slice is only valid until the next
// ApplyInto call that reuses buf; nothing in the system retains it.
func (s *System) ApplyInto(t Transition, buf []Event) []Event {
	events := buf[:0]
	switch t.Kind {
	case THostSend:
		s.ownHost(t.Host).ConsumeSend()
		s.markGroup(t.Hdr)
		s.inject(t.Host, t.Hdr, &events)
	case THostReply:
		hdr := s.ownHost(t.Host).TakeReply()
		s.markGroup(hdr)
		s.inject(t.Host, hdr, &events)
	case THostDiscover:
		h := s.Host(t.Host)
		key := s.packetsKey(h)
		pkts, ok := s.caches.getPackets(key)
		if !ok {
			pkts = s.caches.putPackets(key, s.discoverPackets(h))
		}
		events = append(events, Event{Kind: EvCtrlDispatch, Host: t.Host,
			Note: fmt.Sprintf("discover_packets: %d classes", len(pkts))})
	case THostMove:
		h := s.ownHost(t.Host)
		old := h.Loc
		loc, ok := h.Move()
		if !ok {
			panic("core: move transition on immobile host")
		}
		// The vacated port goes down (unless a link or another host
		// still occupies it); the new port comes up.
		if !s.portOccupied(old) {
			s.ownSwitch(old.Sw).SetPortUp(old.Port, false)
			s.notifyPortStatus(old, false)
		}
		s.ownSwitch(loc.Sw).SetPortUp(loc.Port, true)
		s.notifyPortStatus(loc, true)
		events = append(events, Event{Kind: EvHostMove, Host: t.Host, Loc: loc})
	case TCtrlDispatch:
		ctrl := s.ownCtrl()
		msg, ok := ctrl.PopIn(t.Sw)
		if !ok {
			panic("core: ctrl_dispatch with empty channel")
		}
		events = append(events, Event{Kind: EvCtrlDispatch, Sw: t.Sw, Msg: msg})
		ctrl.Dispatch(msg)
		s.noDelayFixpoint(&events)
	case TCtrlDiscoverStats:
		key := s.statsKey(t.Sw)
		variants, ok := s.caches.getStats(key)
		if !ok {
			variants = s.caches.putStats(key, s.discoverStats(t.Sw))
		}
		events = append(events, Event{Kind: EvCtrlDispatch, Sw: t.Sw,
			Note: fmt.Sprintf("discover_stats: %d classes", len(variants))})
	case TCtrlProcessStats:
		ctrl := s.ownCtrl()
		msg, ok := ctrl.PopIn(t.Sw)
		if !ok || msg.Type != openflow.MsgStatsReply {
			panic("core: process_stats without pending stats reply")
		}
		events = append(events, Event{Kind: EvStats, Sw: t.Sw, Stats: t.Stats})
		ctrl.DispatchStats(t.Sw, t.Stats)
		s.noDelayFixpoint(&events)
	case TCtrlEnv:
		events = append(events, Event{Kind: EvEnv, Note: t.Env})
		s.markEnvGroup(t.Env)
		s.ownCtrl().DispatchEnv(t.Env)
		if s.cfg.AtomicEnv {
			s.drainOutbound(&events)
		}
		s.noDelayFixpoint(&events)
	case TSwitchProcess:
		res := s.ownSwitch(t.Sw).ProcessPackets(&s.alloc)
		s.route(t.Sw, res, &events)
		s.noDelayFixpoint(&events)
	case TSwitchProcessPort:
		res, ok := s.ownSwitch(t.Sw).ProcessPacketOnPort(t.Port, &s.alloc)
		if !ok {
			panic("core: process_pkt_port with empty channel")
		}
		s.route(t.Sw, res, &events)
		s.noDelayFixpoint(&events)
	case TSwitchOF:
		msg, ok := s.ownCtrl().PopOut(t.Sw)
		if !ok {
			panic("core: process_of with empty channel")
		}
		res := s.ownSwitch(t.Sw).ApplyOF(msg, &s.alloc)
		s.route(t.Sw, res, &events)
		s.noDelayFixpoint(&events)
	case TSwitchTick:
		for _, r := range s.ownSwitch(t.Sw).ExpireTimers() {
			events = append(events, Event{Kind: EvRuleExpired, Sw: t.Sw, Rule: r})
		}
	case TFaultDrop, TFaultDuplicate, TFaultReorder, TFaultLinkDown, TFaultSwitchDown:
		events = s.applyFault(t, events)
	default:
		panic(fmt.Sprintf("core: unknown transition %v", t.Kind))
	}
	return events
}

// portOccupied reports whether anything (link or host) is still attached
// to a port.
func (s *System) portOccupied(k topo.PortKey) bool {
	if _, ok := s.cfg.Topo.Peer(k); ok {
		return true
	}
	for _, h := range s.hosts {
		if h.Loc == k {
			return true
		}
	}
	return false
}

// notifyPortStatus sends a port_status event to the controller when the
// configuration asks for it.
func (s *System) notifyPortStatus(k topo.PortKey, up bool) {
	if !s.cfg.EnablePortStatus {
		return
	}
	s.ownCtrl().DeliverToController(openflow.Msg{
		Type: openflow.MsgPortStatus, Switch: k.Sw, InPort: k.Port, PortUp: up,
	})
}

func (s *System) markGroup(hdr openflow.Header) {
	if s.cfg.FlowGroupKey != nil {
		s.lastGroup = s.effectiveGroup(hdr, true)
	}
}

func (s *System) markEnvGroup(event string) {
	if s.cfg.FlowGroupKey != nil && s.cfg.EnvGroupKey != nil {
		s.lastGroup = s.cfg.EnvGroupKey(event)
	}
}

// inject places a host-sent packet on the ingress channel at the host's
// current location.
func (s *System) inject(host openflow.HostID, hdr openflow.Header, events *[]Event) {
	h := s.Host(host)
	id := s.alloc.Next()
	pkt := openflow.Packet{Header: hdr, ID: id, Orig: id}
	*events = append(*events, Event{Kind: EvHostSend, Host: host, Pkt: pkt, Loc: h.Loc})
	sw := s.ownSwitch(h.Loc.Sw)
	sw.Enqueue(h.Loc.Port, pkt)
	*events = append(*events, Event{Kind: EvArrive, Sw: h.Loc.Sw, Port: h.Loc.Port, Pkt: pkt})
}

// route applies a switch's processing effects to the rest of the system:
// controller messages onto the OpenFlow channel, egress packets onto
// links, hosts, or the void.
func (s *System) route(swID openflow.SwitchID, res openflow.ProcResult, events *[]Event) {
	for _, pkt := range res.Dropped {
		*events = append(*events, Event{Kind: EvDropped, Sw: swID, Pkt: pkt})
	}
	for _, pkt := range res.Copies {
		*events = append(*events, Event{Kind: EvCopied, Sw: swID, Pkt: pkt})
	}
	for _, pkt := range res.Injected {
		*events = append(*events, Event{Kind: EvCtrlInject, Sw: swID, Pkt: pkt})
	}
	for _, pkt := range res.Buffered {
		*events = append(*events, Event{Kind: EvBuffered, Sw: swID, Pkt: pkt})
	}
	for _, pkt := range res.Released {
		*events = append(*events, Event{Kind: EvReleased, Sw: swID, Pkt: pkt})
	}
	for _, idx := range res.Matched {
		ev := Event{Kind: EvProcessed, Sw: swID, Note: tableMiss}
		if idx >= 0 {
			// The rule travels by value and Event.String renders it on
			// demand; nothing on the search path reads it.
			ev.Rule, ev.Note = s.Switch(swID).Table.Rules()[idx], ""
		}
		*events = append(*events, ev)
	}
	for _, r := range res.InstalledRules {
		*events = append(*events, Event{Kind: EvRuleInstalled, Sw: swID, Rule: r})
	}
	if res.DeletedRules > 0 {
		*events = append(*events, Event{Kind: EvRuleDeleted, Sw: swID,
			Note: strconv.Itoa(res.DeletedRules)})
	}
	for _, m := range res.ToController {
		if m.Type == openflow.MsgPacketIn {
			*events = append(*events, Event{Kind: EvPacketIn, Sw: swID, Port: m.InPort,
				Pkt: m.Packet, Msg: m})
		}
		s.ownCtrl().DeliverToController(m)
	}
	for _, out := range res.Outputs {
		s.deliver(swID, out, events)
	}
}

// deliver resolves one egress: a switch-switch link, a host at the
// far end, or nothing (an immediate black hole).
func (s *System) deliver(swID openflow.SwitchID, out openflow.PortOutput, events *[]Event) {
	here := topo.PortKey{Sw: swID, Port: out.Port}
	if peer, ok := s.cfg.Topo.Peer(here); ok {
		if !s.Switch(peer.Sw).Alive {
			// The far end is a failed switch: environment loss.
			*events = append(*events, Event{Kind: EvFaultDropped, Sw: peer.Sw,
				Port: peer.Port, Pkt: out.Pkt})
			return
		}
		s.ownSwitch(peer.Sw).Enqueue(peer.Port, out.Pkt)
		*events = append(*events, Event{Kind: EvArrive, Sw: peer.Sw, Port: peer.Port, Pkt: out.Pkt})
		return
	}
	for i, h := range s.hosts {
		if h.Loc == here {
			id := s.hostIDs[i]
			s.ownHost(id).Receive(out.Pkt.Header)
			*events = append(*events, Event{Kind: EvDelivered, Host: id, Pkt: out.Pkt, Loc: here})
			return
		}
	}
	*events = append(*events, Event{Kind: EvVanished, Sw: swID, Port: out.Port, Pkt: out.Pkt})
}

// noDelayFixpoint implements NO-DELAY (§4): after any transition that
// put messages on a controller channel, drain both directions to
// completion so the exchange is atomic and the system runs in lock step.
func (s *System) noDelayFixpoint(events *[]Event) {
	if !s.cfg.NoDelay {
		return
	}
	s.drainControllerChannels(events, false)
}

// drainOutbound applies all currently queued controller→switch messages
// (and only those) within the current transition.
func (s *System) drainOutbound(events *[]Event) {
	// Iterating the sorted switch IDs matches PendingOut() order
	// without allocating the pending list.
	for _, sw := range s.swIDs {
		for {
			if _, ok := s.ctrl.HeadOut(sw); !ok {
				break
			}
			msg, _ := s.ownCtrl().PopOut(sw)
			res := s.ownSwitch(sw).ApplyOF(msg, &s.alloc)
			s.route(sw, res, events)
		}
	}
}

// drainControllerChannels applies all pending controller→switch messages
// and dispatches all pending switch→controller messages until both
// directions are empty. During boot (boot=true) this runs regardless of
// strategy so join-time rule setup completes before exploration.
func (s *System) drainControllerChannels(events *[]Event, boot bool) {
	for {
		progress := false
		for _, sw := range s.swIDs {
			for {
				if _, ok := s.ctrl.HeadOut(sw); !ok {
					break
				}
				msg, _ := s.ownCtrl().PopOut(sw)
				res := s.ownSwitch(sw).ApplyOF(msg, &s.alloc)
				s.route(sw, res, events)
				progress = true
			}
		}
		for _, sw := range s.swIDs {
			if _, ok := s.ctrl.HeadIn(sw); !ok {
				continue
			}
			ctrl := s.ownCtrl()
			msg, _ := ctrl.PopIn(sw)
			*events = append(*events, Event{Kind: EvCtrlDispatch, Sw: sw, Msg: msg})
			ctrl.Dispatch(msg)
			progress = true
		}
		if !progress {
			return
		}
		_ = boot
	}
}

// discoverPackets runs the concolic engine over the packet_in handler
// from the client's context (its switch and ingress port), returning the
// representative packet of every feasible handler path — Figure 4's
// "new relevant packets". Handler effects land on a cloned application
// and are discarded.
func (s *System) discoverPackets(h *hosts.Host) []openflow.Header {
	s.caches.noteExploration()
	loc := h.Loc
	seed := h.Seed
	seedAsn := sym.SymbolicPacket(seed, loc.Port).CurrentAssignment()
	explorer := &sym.Explorer{
		Domains:  s.cfg.fieldDomains(),
		Bits:     s.cfg.fieldBits(),
		MaxPaths: s.cfg.MaxSEPaths,
		Memo:     s.caches.SolverMemo(),
		Hooks:    s.caches.symHooks(),
	}
	// The reason code is a one-bit handler input that is not a packet
	// field; explore the handler under both values and pool the
	// discovered classes.
	seen := make(map[openflow.Header]bool)
	var out []openflow.Header
	for _, reason := range []openflow.PacketInReason{openflow.ReasonNoMatch, openflow.ReasonAction} {
		results := explorer.Explore(seedAsn, func(tr *sym.Trace, asn sym.Assignment) {
			pkt := sym.SymbolicPacket(seed, loc.Port)
			pkt.ApplyAssignment(asn)
			app := s.ctrl.App.Clone()
			ctx := controller.NewSymContext(tr)
			app.PacketIn(ctx, loc.Sw, pkt, openflow.BufferNone, reason)
		})
		for _, r := range results {
			pkt := sym.SymbolicPacket(seed, loc.Port)
			pkt.ApplyAssignment(r.Assignment)
			hdr := pkt.Header()
			if !seen[hdr] {
				seen[hdr] = true
				out = append(out, hdr)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// discoverStats runs the concolic engine over the statistics handler
// with symbolic counters, returning one concrete stats vector per
// feasible path (§3.3's discover_stats).
func (s *System) discoverStats(swID openflow.SwitchID) [][]openflow.PortStats {
	s.caches.noteExploration()
	ports := s.Switch(swID).Ports
	levels := s.cfg.statsLevels()
	seedVals := make([]uint64, len(ports))
	for i := range seedVals {
		seedVals[i] = levels[0]
	}
	seedStats := sym.SymbolicStats(ports, seedVals)
	seedAsn := make(sym.Assignment)
	for i, p := range ports {
		seedAsn[sym.StatVarName(p)] = seedVals[i]
	}
	domains := make(map[string][]uint64, len(ports))
	for _, p := range ports {
		domains[sym.StatVarName(p)] = levels
	}
	explorer := &sym.Explorer{
		Domains: domains, MaxPaths: s.cfg.MaxSEPaths, MineDomains: true,
		Memo:  s.caches.SolverMemo(),
		Hooks: s.caches.symHooks(),
	}
	results := explorer.Explore(seedAsn, func(tr *sym.Trace, asn sym.Assignment) {
		st := sym.SymbolicStats(ports, seedVals)
		st.ApplyAssignment(asn)
		app := s.ctrl.App.Clone()
		ctx := controller.NewSymContext(tr)
		app.StatsReply(ctx, swID, st)
	})
	seen := make(map[string]bool)
	var out [][]openflow.PortStats
	for _, r := range results {
		st := sym.SymbolicStats(ports, seedVals)
		st.ApplyAssignment(r.Assignment)
		conc := st.Concrete()
		key := fmt.Sprintf("%v", conc)
		if !seen[key] {
			seen[key] = true
			out = append(out, conc)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return fmt.Sprintf("%v", out[i]) < fmt.Sprintf("%v", out[j])
	})
	_ = seedStats
	return out
}
