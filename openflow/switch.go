package openflow

import (
	"fmt"
	"sort"
	"strconv"

	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/internal/cow"
)

// IDAlloc hands out fresh PacketIDs. It is part of the modelled system
// state (a plain counter) so that cloned states allocate identically and
// replays stay deterministic.
type IDAlloc struct{ next PacketID }

// NewIDAlloc returns an allocator whose first ID is 1.
func NewIDAlloc() *IDAlloc { return &IDAlloc{next: 1} }

// Next returns a fresh PacketID.
func (a *IDAlloc) Next() PacketID { a.next++; return a.next - 1 }

// Clone copies the allocator.
func (a *IDAlloc) Clone() *IDAlloc { c := *a; return &c }

// BufEntry is a packet parked in the switch buffer awaiting a controller
// decision. The NoForgottenPackets property (§5.2) checks these are all
// released by the end of an execution.
type BufEntry struct {
	ID     BufferID
	Pkt    Packet
	InPort PortID
}

// PortOutput is a packet emitted on a switch port; the system layer maps
// it onto the attached link.
type PortOutput struct {
	Port PortID
	Pkt  Packet
}

// ProcResult collects the externally visible effects of processing one
// packet or one OpenFlow message inside a switch.
type ProcResult struct {
	// Outputs are packets to place on egress links.
	Outputs []PortOutput
	// ToController are switch→controller messages (packet_in,
	// barrier_reply, stats_reply) to enqueue on the OpenFlow channel.
	ToController []Msg
	// Dropped are packets discarded by an explicit drop action or an
	// empty action list.
	Dropped []Packet
	// Buffered are packets newly parked in the switch buffer.
	Buffered []Packet
	// Released are packets released from the buffer by packet_out.
	Released []Packet
	// Copies are fresh packet instances created by flooding or
	// multi-port output (NoBlackHoles' copy accounting needs them).
	Copies []Packet
	// Injected are controller-crafted packets entering the network via
	// buffer-less packet_out.
	Injected []Packet
	// Matched notes, per processed packet, the index in Table.Rules()
	// of the rule it hit (-1 on a miss). Indices hold until the next
	// rule mutation; trace output renders the rule from them on demand.
	Matched []int
	// InstalledRules / DeletedRules record flow_mod effects.
	InstalledRules []Rule
	DeletedRules   int
}

// Switch is the simplified OpenFlow switch model of §2.2.2: a flow table,
// per-port ingress FIFO channels, a packet buffer for
// awaiting-controller-response packets, and two transitions —
// process_pkt and process_of — driven by the model checker.
type Switch struct {
	ID    SwitchID
	Ports []PortID // sorted; the switch floods over these
	// Table is embedded by value so forking a switch copies the table
	// struct for free (its rule storage still forks copy-on-write).
	Table FlowTable

	// in holds the per-port ingress FIFO packet channels.
	in map[PortID][]Packet

	// up tracks link state per port: a port is up when a switch link
	// or a host is currently attached. Flooding targets up ports only
	// (OpenFlow floods over ports that are up); outputting to a down
	// port loses the packet — the black hole BUG-I manifests as.
	up map[PortID]bool

	buffer  []BufEntry
	nextBuf BufferID

	// Alive is false after an (optional) switch failure. Core code that
	// flips it directly must call MarkDirty afterwards.
	Alive bool

	// key is the incremental-fingerprinting cache: the 64-bit
	// structural hash of the state, valid until the next mutation.
	// Clone and Fork copy it (a fork starts in an identical state), so
	// unchanged switches are never re-hashed as the search forks.
	key switchKeyCache

	// Tag is the copy-on-write ownership marker (internal/cow): the
	// System owning this switch compares it against its current epoch
	// and forks before mutating when they differ.
	cow.Tag

	// borrowIn / borrowUp mark the channel and link-state maps as
	// shared with the switch this one was forked from; the first
	// mutation copies the map (with capacity-clamped queue slices, so
	// later appends never write a shared backing array) and clears the
	// flag. The flags live only on the exclusive fork — the frozen
	// source is never written — keeping forks race-free.
	borrowIn, borrowUp bool
}

// switchKeyCache caches one KeyHash64 with its parameters.
type switchKeyCache struct {
	hash      uint64
	valid     bool
	canonical bool
	counters  bool
}

// NewSwitch builds a switch with the given ports (order irrelevant; they
// are kept sorted).
func NewSwitch(id SwitchID, ports []PortID) *Switch {
	ps := make([]PortID, len(ports))
	copy(ps, ports)
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	return &Switch{
		ID:    id,
		Ports: ps,
		in:    make(map[PortID][]Packet),
		up:    make(map[PortID]bool),
		Alive: true,
	}
}

// MarkDirty invalidates the cached state hash. Every mutating method
// calls it; callers that mutate exported fields (Alive, Table) directly
// must call it themselves.
func (s *Switch) MarkDirty() { s.key.valid = false }

// SetPortUp sets a port's link state.
func (s *Switch) SetPortUp(p PortID, isUp bool) {
	s.ownUp()
	s.MarkDirty()
	if isUp {
		s.up[p] = true
	} else {
		delete(s.up, p)
	}
}

// PortUp reports a port's link state.
func (s *Switch) PortUp(p PortID) bool { return s.up[p] }

// Clone deep-copies the switch — the retained deep-copy forking path;
// Fork is the copy-on-write fast path.
func (s *Switch) Clone() *Switch {
	c := &Switch{
		ID:      s.ID,
		Ports:   append([]PortID(nil), s.Ports...),
		Table:   *s.Table.Clone(),
		in:      make(map[PortID][]Packet, len(s.in)),
		up:      make(map[PortID]bool, len(s.up)),
		buffer:  make([]BufEntry, len(s.buffer)),
		nextBuf: s.nextBuf,
		Alive:   s.Alive,
		key:     s.key,
	}
	for p, q := range s.in {
		c.in[p] = append([]Packet(nil), q...)
	}
	for p, u := range s.up {
		c.up[p] = u
	}
	copy(c.buffer, s.buffer)
	return c
}

// Fork returns a copy-on-write fork owned at epoch owner: an O(1)
// struct copy that borrows the flow table, channel maps and buffer.
// The receiver must be frozen afterwards (the System-level protocol
// guarantees this by retiring its epoch); the fork copies each borrowed
// piece before its own first mutation of it.
func (s *Switch) Fork(owner uint64) *Switch {
	c := *s
	c.SetOwner(owner)
	c.Table.forkInto(&s.Table)
	// The buffer slice is capacity-clamped so appends reallocate
	// instead of writing the shared backing array; element removal
	// (takeBuffer) already builds a fresh array via clamped appends.
	c.buffer = s.buffer[:len(s.buffer):len(s.buffer)]
	c.borrowIn, c.borrowUp = true, true
	return &c
}

// ownIn copies the borrowed ingress-channel map before its first
// mutation. Queue slices are capacity-clamped, not copied: mutators
// either replace a queue wholesale or append (which then reallocates).
func (s *Switch) ownIn() {
	if !s.borrowIn {
		return
	}
	in := make(map[PortID][]Packet, len(s.in))
	for p, q := range s.in {
		in[p] = q[:len(q):len(q)]
	}
	s.in = in
	s.borrowIn = false
}

// ownUp copies the borrowed link-state map before its first mutation.
func (s *Switch) ownUp() {
	if !s.borrowUp {
		return
	}
	up := make(map[PortID]bool, len(s.up))
	for p, u := range s.up {
		up[p] = u
	}
	s.up = up
	s.borrowUp = false
}

// HasPort reports whether p is one of the switch's ports.
func (s *Switch) HasPort(p PortID) bool {
	for _, q := range s.Ports {
		if q == p {
			return true
		}
	}
	return false
}

// Enqueue appends a packet to port p's ingress channel.
func (s *Switch) Enqueue(p PortID, pkt Packet) {
	if !s.HasPort(p) {
		panic(fmt.Sprintf("openflow: switch %v has no port %v", s.ID, p))
	}
	s.ownIn()
	s.MarkDirty()
	s.in[p] = append(s.in[p], pkt)
}

// PendingPorts returns the sorted ports with a non-empty ingress channel.
func (s *Switch) PendingPorts() []PortID {
	var ports []PortID
	for _, p := range s.Ports {
		if len(s.in[p]) > 0 {
			ports = append(ports, p)
		}
	}
	return ports
}

// QueuedPackets returns the ingress channel contents of port p in order.
func (s *Switch) QueuedPackets(p PortID) []Packet { return s.in[p] }

// TotalQueued counts packets across all ingress channels.
func (s *Switch) TotalQueued() int {
	n := 0
	for _, q := range s.in {
		n += len(q)
	}
	return n
}

// Buffered returns the awaiting-controller buffer entries in buffer-ID
// order.
func (s *Switch) Buffered() []BufEntry { return s.buffer }

// DropHead removes and returns the head packet of a port's channel —
// the fault model's packet-loss transition (§2.2.2's optional channel
// faults).
func (s *Switch) DropHead(p PortID) (Packet, bool) {
	q := s.in[p]
	if len(q) == 0 {
		return Packet{}, false
	}
	s.ownIn()
	s.MarkDirty()
	pkt := q[0]
	if len(q) == 1 {
		delete(s.in, p)
	} else {
		s.in[p] = append([]Packet(nil), q[1:]...)
	}
	return pkt, true
}

// DupHead duplicates the head packet of a port's channel, giving the
// copy a fresh identity and lineage (environment duplication creates a
// new packet as far as the properties are concerned).
func (s *Switch) DupHead(p PortID, alloc *IDAlloc) (Packet, bool) {
	q := s.in[p]
	if len(q) == 0 {
		return Packet{}, false
	}
	s.ownIn()
	s.MarkDirty()
	dup := q[0]
	dup.ID = alloc.Next()
	dup.Orig = dup.ID
	s.in[p] = append([]Packet{dup}, q...)
	return dup, true
}

// SwapHead reorders the first two packets of a port's channel.
func (s *Switch) SwapHead(p PortID) bool {
	q := s.in[p]
	if len(q) < 2 {
		return false
	}
	s.ownIn()
	s.MarkDirty()
	nq := append([]Packet(nil), q...)
	nq[0], nq[1] = nq[1], nq[0]
	s.in[p] = nq
	return true
}

// ProcessPackets implements the process_pkt transition: it dequeues the
// head packet of every non-empty ingress channel and processes each
// against the flow table — a single transition, because the checker
// already explores arrival orderings (§2.2.2 "Two simple transitions").
func (s *Switch) ProcessPackets(alloc *IDAlloc) ProcResult {
	s.ownIn()
	s.MarkDirty()
	var res ProcResult
	for _, p := range s.Ports {
		q := s.in[p]
		if len(q) == 0 {
			continue
		}
		// Sharing the tail is safe: queue backings are never written
		// in place (appends on forks reallocate past the clamp).
		s.in[p] = q[1:]
		s.processOne(&res, q[0], p, alloc)
	}
	return res
}

// ProcessPacketOnPort dequeues and processes the head packet of a single
// port's channel. The fine-grained baseline checker (DESIGN.md §2(3))
// uses this instead of the batched ProcessPackets.
func (s *Switch) ProcessPacketOnPort(p PortID, alloc *IDAlloc) (ProcResult, bool) {
	if len(s.in[p]) == 0 {
		return ProcResult{}, false
	}
	s.ownIn()
	s.MarkDirty()
	pkt := s.in[p][0]
	s.in[p] = s.in[p][1:]
	var res ProcResult
	s.processOne(&res, pkt, p, alloc)
	return res, true
}

// processOne appends one packet's processing effects to res (the
// out-parameter form keeps the hot path free of ProcResult merges).
func (s *Switch) processOne(res *ProcResult, pkt Packet, inPort PortID, alloc *IDAlloc) {
	idx, ok := s.Table.Lookup(pkt.Header, inPort)
	if !ok {
		// Table miss: buffer the packet, send the header to the
		// controller and await a response (§1.1).
		s.bufferAndNotify(res, pkt, inPort, ReasonNoMatch)
		res.Matched = append(res.Matched, -1)
		return
	}
	s.Table.Hit(idx)
	res.Matched = append(res.Matched, idx)
	s.applyActions(res, pkt, inPort, s.Table.Rules()[idx].Actions, alloc)
}

func (s *Switch) bufferAndNotify(res *ProcResult, pkt Packet, inPort PortID, reason PacketInReason) {
	id := s.nextBuf
	s.nextBuf++
	s.buffer = append(s.buffer, BufEntry{ID: id, Pkt: pkt, InPort: inPort})
	res.Buffered = append(res.Buffered, pkt)
	res.ToController = append(res.ToController, Msg{
		Type:   MsgPacketIn,
		Switch: s.ID,
		Buffer: id,
		Packet: pkt,
		InPort: inPort,
		Reason: reason,
	})
}

// applyActions executes an action list on a packet, appending the
// effects to res. Rewrites apply to subsequent outputs; flood emits one
// fresh copy per non-ingress port.
func (s *Switch) applyActions(res *ProcResult, pkt Packet, inPort PortID, actions []Action, alloc *IDAlloc) {
	if len(actions) == 0 {
		res.Dropped = append(res.Dropped, pkt)
		return
	}
	cur := pkt
	emitted := false
	for _, a := range actions {
		switch a.Type {
		case ActionOutput:
			out := cur
			if emitted {
				// Second and later outputs are copies.
				out.ID = alloc.Next()
				res.Copies = append(res.Copies, out)
			}
			emitted = true
			res.Outputs = append(res.Outputs, PortOutput{Port: a.Port, Pkt: out})
		case ActionFlood:
			for _, p := range s.Ports {
				if p == inPort || !s.up[p] {
					continue
				}
				out := cur
				if emitted {
					out.ID = alloc.Next()
					res.Copies = append(res.Copies, out)
				}
				emitted = true
				res.Outputs = append(res.Outputs, PortOutput{Port: p, Pkt: out})
			}
		case ActionDrop:
			if !emitted {
				res.Dropped = append(res.Dropped, cur)
			}
			return
		case ActionController:
			s.bufferAndNotify(res, cur, inPort, ReasonAction)
			emitted = true
		case ActionSetField:
			SetFieldValue(&cur.Header, a.Field, a.Value)
		default:
			panic(fmt.Sprintf("openflow: unknown action %v", a))
		}
	}
	if !emitted {
		// An action list of only rewrites forwards nowhere: drop.
		res.Dropped = append(res.Dropped, cur)
	}
}

// ApplyOF implements the process_of transition for one controller→switch
// message.
func (s *Switch) ApplyOF(m Msg, alloc *IDAlloc) ProcResult {
	s.MarkDirty()
	var res ProcResult
	switch m.Type {
	case MsgFlowMod:
		switch m.Cmd {
		case FlowAdd:
			s.Table.Install(m.Rule)
			res.InstalledRules = append(res.InstalledRules, m.Rule)
		case FlowDelete:
			res.DeletedRules += s.Table.Delete(m.Rule.Match)
		case FlowDeleteStrict:
			res.DeletedRules += s.Table.DeleteStrict(m.Rule.Match, m.Rule.Priority)
		}
	case MsgPacketOut:
		pkt := m.Packet
		inPort := m.InPort
		if m.Buffer != BufferNone {
			entry, ok := s.takeBuffer(m.Buffer)
			if !ok {
				// Releasing an unknown buffer is a no-op (the
				// buffer may have been released already).
				return res
			}
			pkt = entry.Pkt
			inPort = entry.InPort
			res.Released = append(res.Released, pkt)
		} else {
			// A controller-crafted packet enters the network here;
			// give it an identity so properties can account for it.
			pkt.ID = alloc.Next()
			pkt.Orig = pkt.ID
			res.Injected = append(res.Injected, pkt)
		}
		s.applyActions(&res, pkt, inPort, m.Actions, alloc)
	case MsgBarrierRequest:
		res.ToController = append(res.ToController, Msg{
			Type: MsgBarrierReply, Switch: s.ID, Xid: m.Xid,
		})
	case MsgStatsRequest:
		res.ToController = append(res.ToController, Msg{
			Type: MsgStatsReply, Switch: s.ID, Stats: s.portStats(m.StatsPort),
		})
	default:
		panic(fmt.Sprintf("openflow: switch cannot apply %v", m.Type))
	}
	return res
}

// TakeAllBuffered empties the awaiting-controller buffer, returning the
// entries (used when a switch fails and loses its soft state).
func (s *Switch) TakeAllBuffered() []BufEntry {
	s.MarkDirty()
	out := s.buffer
	s.buffer = nil
	return out
}

func (s *Switch) takeBuffer(id BufferID) (BufEntry, bool) {
	for i, e := range s.buffer {
		if e.ID == id {
			s.buffer = append(s.buffer[:i:i], s.buffer[i+1:]...)
			return e, true
		}
	}
	return BufEntry{}, false
}

// portStats summarizes per-rule counters into per-port transmit counters.
// The aggregate is deliberately coarse: the checker replaces concrete
// stats with symbolically discovered representatives (discover_stats,
// §3.3), so only the message's existence matters to the search.
func (s *Switch) portStats(port PortID) []PortStats {
	var out []PortStats
	for _, p := range s.Ports {
		if port != PortNone && p != port {
			continue
		}
		var tx uint64
		for _, r := range s.Table.Rules() {
			for _, a := range r.Actions {
				if a.Type == ActionOutput && a.Port == p {
					tx += r.ByteCount
				}
			}
		}
		out = append(out, PortStats{Port: p, TxBytes: tx})
	}
	return out
}

// ExpireTimers advances the flow-table timeout clock by one tick
// (optional environment transition; see DESIGN.md §2(6)).
func (s *Switch) ExpireTimers() []Rule {
	s.MarkDirty()
	return s.Table.Tick()
}

// KeyHash64 returns the 64-bit structural hash of the switch state —
// the component hash System.Fingerprint combines. canonical selects
// the reduced flow-table representation; includeCounters folds rule
// counters in (off by default — see core.Config). The hash is cached
// and reused until the next mutation; FreshKeyHash64 bypasses the cache.
func (s *Switch) KeyHash64(canonical, includeCounters bool) uint64 {
	if !s.key.valid || s.key.canonical != canonical || s.key.counters != includeCounters {
		s.key = switchKeyCache{
			hash:  s.hashState(s.Table.Digest(canonical, includeCounters)),
			valid: true, canonical: canonical, counters: includeCounters,
		}
	}
	return s.key.hash
}

// FreshKeyHash64 recomputes KeyHash64 from scratch, ignoring the
// switch-level cache and the flow table's maintained sum — the side
// VerifyCaches compares the cached hash against.
func (s *Switch) FreshKeyHash64(canonical, includeCounters bool) uint64 {
	return s.hashState(s.Table.FreshDigest(canonical, includeCounters))
}

// hashState folds the fields StateKey renders around the given table
// digest. Every section is self-delimiting (fixed port list, counted
// buffer, counted queues), so distinct states feed distinct word
// sequences.
func (s *Switch) hashState(table uint64) uint64 {
	h := canon.NewMix(uint64(s.ID)).Word(boolWord(s.Alive))
	for _, p := range s.Ports {
		h = h.Word(uint64(p)<<1 | boolWord(s.up[p]))
	}
	h = h.Word(table).Word(uint64(len(s.buffer)))
	for _, e := range s.buffer {
		// Buffer IDs are opaque correlation tokens; hashing the held
		// packets (not the IDs) lets semantically equivalent states
		// merge. In-flight packet_in messages referencing a buffer
		// already distinguish states where the distinction matters.
		h = e.Pkt.Header.Hash(h).Word(uint64(e.InPort))
	}
	for _, p := range s.Ports {
		q := s.in[p]
		if len(q) == 0 {
			continue
		}
		h = h.Word(uint64(p)).Word(uint64(len(q)))
		for _, pkt := range q {
			h = pkt.Header.Hash(h)
		}
	}
	return h.Sum()
}

// StateKey renders the switch state canonically, from scratch: the
// string twin of KeyHash64 that OracleKey, core.WithOracleHash and debug
// output read. canonical and includeCounters are KeyHash64's.
func (s *Switch) StateKey(canonical, includeCounters bool) string {
	b := make([]byte, 0, 256)
	b = append(b, "sw"...)
	b = appendInt(b, int(s.ID))
	b = append(b, " alive="...)
	b = strconv.AppendBool(b, s.Alive)
	b = append(b, " up["...)
	for _, p := range s.Ports {
		if s.up[p] {
			b = appendInt(b, int(p))
			b = append(b, ' ')
		}
	}
	b = append(b, "] table["...)
	if canonical {
		b = append(b, s.Table.RenderCanonicalKey(includeCounters)...)
	} else {
		b = append(b, s.Table.RenderInsertionOrderKey(includeCounters)...)
	}
	b = append(b, "] in["...)
	for _, p := range s.Ports {
		q := s.in[p]
		if len(q) == 0 {
			continue
		}
		b = append(b, 'p')
		b = appendInt(b, int(p))
		b = append(b, ':')
		for _, pkt := range q {
			b = append(b, '(')
			b = pkt.Header.appendKey(b)
			b = append(b, ')')
		}
	}
	b = append(b, "] buf["...)
	for _, e := range s.buffer {
		b = append(b, '(')
		b = e.Pkt.Header.appendKey(b)
		b = append(b, ")@p"...)
		b = appendInt(b, int(e.InPort))
	}
	b = append(b, ']')
	return string(b)
}
