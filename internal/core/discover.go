package core

import (
	"sort"
	"strconv"

	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/hosts"
	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/internal/sym"
	"github.com/nice-go/nice/openflow"
)

// AppDigest is the 128-bit digest of the controller application's
// canonical state — the discover-cache key component the concolic loop
// uses to recognize novel controller states (its feedback signal).
func (s *System) AppDigest() canon.Digest { return s.ctrl.AppKeyDigest() }

// DiscoverCached reports whether discover transition t (THostDiscover
// or TCtrlDiscoverStats) would be answered from the memo at this state,
// with no fresh exploration — always true with SE disabled, where there
// is nothing to discover.
func (s *System) DiscoverCached(t Transition) bool {
	if s.cfg.DisableSE {
		return true
	}
	if t.Kind == TCtrlDiscoverStats {
		_, ok := s.caches.stats.get(s.statsKey(t.Sw))
		return ok
	}
	h := s.Host(t.Host)
	if h == nil {
		return true
	}
	_, ok := s.caches.packets.get(s.packetsKey(h))
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
	return len(s.packetClasses(h))
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

// packetClasses runs (or recalls) discover_packets for h at this state.
func (s *System) packetClasses(h *hosts.Host) []openflow.Header {
	return getOrDiscover(&s.caches.packets, s.packetsKey(h),
		func() []openflow.Header { return s.discoverPackets(h) })
}

// statsClasses is packetClasses for discover_stats.
func (s *System) statsClasses(sw openflow.SwitchID) [][]openflow.PortStats {
	return getOrDiscover(&s.caches.stats, s.statsKey(sw),
		func() [][]openflow.PortStats { return s.discoverStats(sw) })
}

// discoverPackets runs the concolic engine over the packet_in handler
// from the client's context (its switch and ingress port), returning the
// representative packet of every feasible handler path — Figure 4's
// "new relevant packets". Each handler run gets its own App.Clone, a
// copy-on-write fork that never writes the live application, and its
// effects are discarded with the copy.
func (s *System) discoverPackets(h *hosts.Host) []openflow.Header {
	s.caches.noteExploration()
	loc := h.Loc
	seed := h.Seed
	seedAsn := sym.SymbolicPacket(seed, loc.Port).CurrentAssignment()
	explorer := &sym.Explorer{
		Domains: s.inputs.fieldDomains(s.cfg),
		Bits:    fieldBits,
		Memo:    s.caches.SolverMemo(),
		Hooks:   s.caches.symHooks(),
	}
	// The reason code is a one-bit handler input that is not a packet
	// field; explore the handler under both values and pool the
	// discovered classes.
	seen := make(map[openflow.Header]bool)
	var out []keyed[openflow.Header]
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
				out = append(out, keyed[openflow.Header]{hdr.String(), hdr})
			}
		}
	}
	return sortedByKey(out)
}

// discoverStats runs the concolic engine over the statistics handler
// with symbolic counters, returning one concrete stats vector per
// feasible path (§3.3's discover_stats).
func (s *System) discoverStats(swID openflow.SwitchID) [][]openflow.PortStats {
	s.caches.noteExploration()
	ports := s.Switch(swID).Ports
	// Counters seed at zero; the explorer mines the handler's comparison
	// thresholds into their domains.
	levels := []uint64{0}
	seedVals := make([]uint64, len(ports))
	seedAsn := make(sym.Assignment)
	domains := make(map[string][]uint64, len(ports))
	for i, p := range ports {
		name := sym.StatVarName(p)
		seedAsn[name], domains[name] = seedVals[i], levels
	}
	explorer := &sym.Explorer{
		Domains: domains, MineDomains: true,
		Memo:  s.caches.SolverMemo(),
		Hooks: s.caches.symHooks(),
	}
	// One symbolic vector serves every run: each assignment the
	// explorer hands over names every counter, so it overwrites them all.
	st := sym.SymbolicStats(ports, seedVals)
	results := explorer.Explore(seedAsn, func(tr *sym.Trace, asn sym.Assignment) {
		st.ApplyAssignment(asn)
		app := s.ctrl.App.Clone()
		ctx := controller.NewSymContext(tr)
		app.StatsReply(ctx, swID, st)
	})
	seen := make(map[string]bool)
	var out []keyed[[]openflow.PortStats]
	for _, r := range results {
		st.ApplyAssignment(r.Assignment)
		conc := st.Concrete()
		key := statsClassKey(conc)
		if !seen[key] {
			seen[key] = true
			out = append(out, keyed[[]openflow.PortStats]{key, conc})
		}
	}
	return sortedByKey(out)
}

// statsClassKey renders a stats vector byte for byte as fmt's %v does,
// "[{p1 10 0} {p2 0 0}]", without fmt.
func statsClassKey(conc []openflow.PortStats) string {
	var buf [128]byte
	b := append(buf[:0], '[')
	for i, ps := range conc {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, "{p"...)
		b = strconv.AppendInt(b, int64(ps.Port), 10)
		b = append(b, ' ')
		b = strconv.AppendUint(b, ps.TxBytes, 10)
		b = append(b, ' ')
		b = strconv.AppendUint(b, ps.RxBytes, 10)
		b = append(b, '}')
	}
	return string(append(b, ']'))
}

// keyed is a discovered class beside its rendering, which orders the
// classes.
type keyed[T any] struct {
	key string
	v   T
}

// sortedByKey orders classes by their renderings, each rendered once:
// the order sort.Slice gives when its comparator renders both sides,
// since the comparisons, and so the swaps, are the same.
func sortedByKey[T any](ks []keyed[T]) []T {
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	out := make([]T, len(ks))
	for i := range ks {
		out[i] = ks[i].v
	}
	return out
}
