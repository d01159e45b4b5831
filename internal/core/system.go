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
// the explored-state set.
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
	props    []propSlot
	// propsSpare is an emptied props backing a reclaimed fork left with
	// its pooled System struct; ownProp copies into it instead of
	// allocating. Only this struct references it.
	propsSpare []propSlot
	// res is the scratch every process_pkt and process_of fills and
	// route reads. Like propsSpare it stays with the struct: Clone does
	// not copy it and Release does not clear it, so its slice backings
	// serve every transition this struct applies.
	res openflow.ProcResult

	// epoch is this System's current copy-on-write ownership epoch: a
	// component whose tag matches it is exclusively owned and may be
	// mutated in place; anything else must be forked first (the
	// ensureOwned step of internal/cow). Clone retires the epoch on
	// both sides, freezing every shared component.
	epoch uint64
	// propsEpoch marks the props slice owned when equal to epoch (each
	// slot's Tag marks its property owned within it); groupEpoch marks
	// groupCounts owned likewise. They are epochs, not flags, so
	// Reclaim's return to an epoch gives them back for free.
	propsEpoch uint64
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

	// inputs holds the symbolic packet fields' candidate domains, built
	// by the search's first discover_packets and shared by every fork.
	inputs *symInputs

	// met is the optional cow instrumentation bundle (Session.NewSystem),
	// shared by the whole search: Clone hands it to every fork, Release
	// drops it. Nil — the default — keeps every count site to one branch.
	met *systemTelemetry
}

// NewSystem builds the initial state: switches constructed from the
// topology, hosts forked from their prototypes, and the application
// booted by dispatching a switch_join per switch, with all resulting
// messages applied synchronously (the network is fully joined before
// exploration starts; see docs/ARCHITECTURE.md, "Deviations from the
// paper").
func NewSystem(cfg *Config) *System {
	return NewSystemWith(cfg, NewCaches())
}

// NewSystemWith builds the initial state against a caller-supplied
// discover-cache set. The parallel search engine uses it so all workers
// share one memo; tests use it to warm caches across runs. A Config may
// hold any number of properties: each slot carries its own ownership
// tag.
func NewSystemWith(cfg *Config, cc *Caches) *System {
	if cfg.Topo == nil || cfg.App == nil {
		panic("core: Config.Topo and Config.App are required")
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
		groupEpoch:  epoch,
		inputs:      new(symInputs),
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
		s.hosts[s.hostIndex(h.ID)] = h.Fork(epoch)
	}
	s.props = make([]propSlot, len(cfg.Properties))
	for i, p := range cfg.Properties {
		s.props[i].p = p.Clone()
		s.props[i].SetOwner(epoch)
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
// discover caches) copy-on-write (the internal/cow protocol):
// O(#components) pointer copies now, with each component deep-copied
// lazily by the ensureOwned hooks at its mutation sites.
func (s *System) Clone() *System {
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
	c.groupEpoch = 0
	c.lastGroup = s.lastGroup
	c.groupCounts = s.groupCounts
	c.groupDigest = s.groupDigest
	c.faults = s.faults
	c.inputs = s.inputs
	c.cachesWarm = true
	c.met = s.met
	return c
}

// Lend forks s for a depth-first search that will explore the fork's
// subtree before s's next successor, returning the epoch s held before
// the fork for Reclaim.
func (s *System) Lend() (*System, uint64) {
	epoch := s.epoch
	return s.Clone(), epoch
}

// Reclaim releases fork, lent at epoch, and returns s to that epoch (the
// reclaim rule of internal/cow): the caller asserts every fork made from
// fork is released too, so s again owns what it owned then. Reclaim
// also recycles what fork made (cow invariant 4): every switch, host
// and runtime tagged with fork's epoch, with its channel maps, and the
// props backing fork copied. A misuse — a fork of fork still alive —
// therefore corrupts the search: that fork reads zeroed components.
func (s *System) Reclaim(fork *System, epoch uint64) {
	fork.recycle()
	fork.Release()
	s.epoch = epoch
}

// recycle hands back every component s exclusively owns. Under the
// reclaim rule s and every fork made from it are dead, so each component
// tagged with s's epoch was made by s and no live System reaches it
// (cow invariant 1). The props backing stays with s's pooled struct.
func (s *System) recycle() {
	n := recycleShells(s.epoch, s.switches) + recycleShells(s.epoch, s.hosts) +
		recycleShells(s.epoch, []*controller.Runtime{s.ctrl})
	if s.propsEpoch == s.epoch {
		clear(s.props)
		s.propsSpare = s.props[:0]
	}
	if s.met != nil {
		s.met.shellsRecycled.Add(n)
	}
}

// shell is a component a System holds by pointer and forks on its
// first write after a fork: a switch, a host or the controller runtime.
type shell[P any] interface {
	OwnedBy(epoch uint64) bool
	Fork(owner uint64) P
	Recycle()
}

// recycleShells recycles the shells owned at epoch, returning how many.
func recycleShells[P shell[P]](epoch uint64, shells []P) int64 {
	n := int64(0)
	for _, c := range shells {
		if c.OwnedBy(epoch) {
			c.Recycle()
			n++
		}
	}
	return n
}

// systemPool recycles System structs and their component-pointer slice
// backings across forks (and, after Reclaim, a props backing): under
// copy-on-write these are the only allocations Clone makes, and the
// engines know exactly when a fork is dead (fully expanded, revisited,
// or pruned).
var systemPool = sync.Pool{New: func() any { return &System{} }}

// Release returns a dead System's struct and slice backings to the fork
// pool. The caller asserts nothing references s anymore: its components
// live on in any forks that borrowed them (only the struct and the
// pointer slices are recycled; the components only by Reclaim, whose
// caller knows the subtree is dead), but s itself must never be used
// again. Releasing is optional — unreleased Systems are ordinary
// garbage.
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
	s.inputs = nil
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
	for i := range s.props {
		s.props[i].keyHash()
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

// own returns the shell *slot holds, forking it into *slot first
// unless it is already exclusively owned at the current epoch — the
// ensureOwned hook every switch, host and runtime mutation site goes
// through.
func own[P shell[P]](s *System, slot *P) P {
	s.cachesWarm = false
	if !(*slot).OwnedBy(s.epoch) {
		*slot = (*slot).Fork(s.epoch)
		if s.met != nil {
			s.met.copies.Inc()
		}
	}
	return *slot
}

// ownSwitch, ownHost and ownCtrl own a switch, a host and the runtime.
func (s *System) ownSwitch(id openflow.SwitchID) *openflow.Switch {
	return own(s, &s.switches[s.swIndex(id)])
}

func (s *System) ownHost(id openflow.HostID) *hosts.Host { return own(s, &s.hosts[s.hostIndex(id)]) }

func (s *System) ownCtrl() *controller.Runtime { return own(s, &s.ctrl) }

// ownProp returns property i for mutation (event delivery), copying the
// props slice (into the spare backing when there is one) and the
// property itself on first use after a fork, and invalidates the key
// hash of a property that does not report its mutations by a version
// (the rule Runtime.appDirty applies to apps).
func (s *System) ownProp(i int) Property {
	s.cachesWarm = false
	if s.propsEpoch != s.epoch {
		s.props = append(s.propsSpare, s.props...)
		s.propsSpare = nil
		s.propsEpoch = s.epoch
	}
	sl := &s.props[i]
	if !sl.OwnedBy(s.epoch) {
		sl.p = sl.p.Clone()
		sl.SetOwner(s.epoch)
		if s.met != nil {
			s.met.copies.Inc()
		}
	}
	if _, ok := sl.p.(controller.Versioned); !ok {
		sl.valid = false
	}
	return sl.p
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

// OracleKey renders the full system state from scratch as one canonical
// string, bypassing every component hash cache and the application and
// property key caches — the state identity the structural fingerprint
// is differentially tested against, and the one the reference explorer
// in scenarios' tests names states by.
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
	for _, sl := range s.props {
		b.WriteString(sl.p.Name())
		b.WriteByte(':')
		b.WriteString(sl.p.StateKey())
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
