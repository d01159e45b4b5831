package core

import (
	"fmt"
	"sort"

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
// "new relevant packets". Handler effects land on a cloned application
// and are discarded.
func (s *System) discoverPackets(h *hosts.Host) []openflow.Header {
	s.caches.noteExploration()
	loc := h.Loc
	seed := h.Seed
	seedAsn := sym.SymbolicPacket(seed, loc.Port).CurrentAssignment()
	explorer := &sym.Explorer{
		Domains: s.cfg.fieldDomains(),
		Bits:    s.cfg.fieldBits(),
		Memo:    s.caches.SolverMemo(),
		Hooks:   s.caches.symHooks(),
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
	return out
}
