package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/hosts"
	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/internal/cow"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

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
	return NewSystemWith(cfg, NewCaches())
}

// NewSystemWith builds the initial state against a caller-supplied
// discover-cache set. The parallel search engine uses it so all workers
// share one memo; tests use it to warm caches across runs.
func NewSystemWith(cfg *Config, cc *Caches) *System {
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
	s.drainControllerChannels(&boot)
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
			if pkts, ok := s.caches.packets.get(packetsKeyWith(h, app)); ok {
				fmt.Fprintf(&b, "se:%d=%d\n", int(h.ID), len(pkts))
			}
		}
		for _, sw := range s.swIDs {
			if vs, ok := s.caches.stats.get(statsCacheKey{sw: sw, app: app}); ok {
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
