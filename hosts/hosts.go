package hosts

import (
	"strconv"
	"sync"

	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/internal/cow"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

// UnlimitedCredits disables the outstanding-packet bound for a host.
const UnlimitedCredits = -1

// ReplyFunc derives a server's reply to a received packet; ok=false means
// no reply (e.g. the packet was not addressed to this host).
type ReplyFunc func(h *Host, received openflow.Header) (openflow.Header, bool)

// Host is the dynamic state of one end host. The paper's default client
// has a bounded send transition and a receive transition with a credit
// counter c bounding the packet burst (PKT-SEQ, §4); the default server
// has receive and send_reply, the latter enabled by the former; the
// mobile host adds move.
type Host struct {
	ID   openflow.HostID
	Name string
	MAC  openflow.EthAddr
	IP   openflow.IPAddr

	// Loc is the current attachment point; MoveTargets are the
	// remaining locations the mobile host may move to, in order.
	Loc         topo.PortKey
	MoveTargets []topo.PortKey

	// SendBudget is the remaining number of client send transitions
	// (the maximum packet-sequence length of PKT-SEQ). Servers have 0.
	SendBudget int
	// Credits is the PKT-SEQ burst counter c: sending consumes one,
	// every received packet replenishes one. UnlimitedCredits disables
	// the bound.
	Credits int

	// Reply derives reply packets; nil for pure clients. Reply
	// functions must be stateless (they are shared across forks).
	Reply ReplyFunc
	// ReplyBudget bounds how many replies the host will queue in total.
	ReplyBudget int
	// PendingReplies holds reply packets enabled by receives and not
	// yet sent (the send_reply transition sends the head).
	PendingReplies []openflow.Header

	// Seed is the client's natural packet, used to seed concolic
	// exploration in discover_packets. Zero for servers.
	Seed openflow.Header

	// Repertoire is the fixed set of sendable packets used when
	// symbolic execution is disabled (the developer-supplied "relevant
	// inputs" fallback of §2.2.1 and the no-SE ablation).
	Repertoire []openflow.Header
	// RepertoireOnce makes the repertoire a sequence: entry i is sent
	// exactly once, in order. The §7 ping workload uses it for its C
	// distinct concurrent pings.
	RepertoireOnce bool
	// RepIdx is the next sequential repertoire entry.
	RepIdx int

	// SentCount / Received record activity for properties and replies.
	SentCount int
	Received  []openflow.Header

	// keyHash caches KeyHash64 for incremental state fingerprinting:
	// valid until the next mutating method runs, copied by Fork so
	// unchanged hosts are not re-hashed as the search forks. Code that
	// mutates exported fields directly after a KeyHash64 call must call
	// Invalidate.
	keyHash  uint64
	keyValid bool

	// Tag is the copy-on-write ownership marker (internal/cow): the
	// System owning this host compares it against its current epoch and
	// forks before mutating when they differ.
	cow.Tag
}

// Invalidate drops the cached KeyHash64.
func (h *Host) Invalidate() { h.keyValid = false }

// hostPool holds recycled host shells (Recycle).
var hostPool sync.Pool

// Fork returns a copy-on-write fork owned at epoch owner, the one copy
// of a host: NewSystem forks each Config prototype, and the search forks
// each state's hosts. It is an O(1) struct copy, into a recycled shell
// when there is one, whose slices are capacity-clamped so appends
// reallocate instead of writing a shared backing array. Every Host
// mutator either appends or replaces a slice wholesale (never writes
// elements in place), so no further copying is needed and the fork
// never writes the receiver; the receiver must be frozen while the fork
// lives, which the System-level protocol guarantees by retiring its
// epoch.
func (h *Host) Fork(owner uint64) *Host {
	c, _ := hostPool.Get().(*Host)
	if c == nil {
		c = new(Host)
	}
	*c = *h
	c.SetOwner(owner)
	c.MoveTargets = c.MoveTargets[:len(c.MoveTargets):len(c.MoveTargets)]
	c.PendingReplies = c.PendingReplies[:len(c.PendingReplies):len(c.PendingReplies)]
	c.Received = c.Received[:len(c.Received):len(c.Received)]
	// Repertoire is immutable after construction (RepIdx advances, the
	// entries never change), so the fork shares it as-is.
	return c
}

// Recycle zeroes a dead host and hands its shell back for Fork to reuse.
// It is the model checker's own call (System.Reclaim), made only on a
// host no live state can reach; its slice backings are never reused.
func (h *Host) Recycle() {
	*h = Host{}
	hostPool.Put(h)
}

// CanSend reports whether a client send transition is enabled.
func (h *Host) CanSend() bool {
	if h.RepertoireOnce && h.RepIdx >= len(h.Repertoire) {
		return false
	}
	return h.SendBudget > 0 && (h.Credits == UnlimitedCredits || h.Credits > 0)
}

// NextRepertoire returns the sendable repertoire entries at this state:
// the whole set normally, or just the next sequence entry under
// RepertoireOnce.
func (h *Host) NextRepertoire() []openflow.Header {
	if !h.RepertoireOnce {
		return h.Repertoire
	}
	if h.RepIdx >= len(h.Repertoire) {
		return nil
	}
	return h.Repertoire[h.RepIdx : h.RepIdx+1]
}

// CanReply reports whether a send_reply transition is enabled.
func (h *Host) CanReply() bool {
	return len(h.PendingReplies) > 0 && (h.Credits == UnlimitedCredits || h.Credits > 0)
}

// ConsumeSend debits the budgets for one client send.
func (h *Host) ConsumeSend() {
	h.Invalidate()
	h.SendBudget--
	if h.Credits != UnlimitedCredits {
		h.Credits--
	}
	if h.RepertoireOnce {
		h.RepIdx++
	}
	h.SentCount++
}

// TakeReply pops the pending reply head and debits the credit counter.
func (h *Host) TakeReply() openflow.Header {
	h.Invalidate()
	r := h.PendingReplies[0]
	h.PendingReplies = append([]openflow.Header(nil), h.PendingReplies[1:]...)
	if h.Credits != UnlimitedCredits {
		h.Credits--
	}
	h.SentCount++
	return r
}

// Receive records a delivered packet, replenishes one credit (the
// default PKT-SEQ behaviour: "increase c by one unit for every received
// packet"), and queues a reply if the host replies to this packet.
func (h *Host) Receive(pkt openflow.Header) {
	h.Invalidate()
	h.Received = append(h.Received, pkt)
	if h.Credits != UnlimitedCredits {
		h.Credits++
	}
	if h.Reply != nil && h.ReplyBudget > 0 {
		if rep, ok := h.Reply(h, pkt); ok {
			h.ReplyBudget--
			h.PendingReplies = append(h.PendingReplies, rep)
		}
	}
}

// Move relocates the host to its next move target, returning the new
// location (ok=false when no targets remain).
func (h *Host) Move() (topo.PortKey, bool) {
	if len(h.MoveTargets) == 0 {
		return topo.PortKey{}, false
	}
	h.Invalidate()
	h.Loc = h.MoveTargets[0]
	h.MoveTargets = append([]topo.PortKey(nil), h.MoveTargets[1:]...)
	return h.Loc, true
}

// KeyHash64 returns the 64-bit structural hash of the host state — the
// component hash System.Fingerprint combines — reusing the cached value
// when no mutation happened since the last call.
func (h *Host) KeyHash64() uint64 {
	if !h.keyValid {
		h.keyHash = h.FreshKeyHash64()
		h.keyValid = true
	}
	return h.keyHash
}

// FreshKeyHash64 recomputes KeyHash64 from scratch, ignoring the cache:
// exactly the fields StateKey renders, as words (hosts re-hash on every
// send and receive).
func (h *Host) FreshKeyHash64() uint64 {
	m := canon.NewMix(uint64(h.ID)).Word(uint64(h.Loc.Sw)).Word(uint64(h.Loc.Port)).
		Word(uint64(h.SendBudget)).Word(uint64(h.Credits)).Word(uint64(h.ReplyBudget)).
		Word(uint64(h.SentCount)).Word(uint64(h.RepIdx)).Word(uint64(len(h.MoveTargets)))
	for _, t := range h.MoveTargets {
		m = m.Word(uint64(t.Sw)).Word(uint64(t.Port))
	}
	m = m.Word(uint64(len(h.PendingReplies)))
	for _, r := range h.PendingReplies {
		m = r.Hash(m)
	}
	m = m.Word(uint64(len(h.Received)))
	for _, r := range h.Received {
		m = r.Hash(m)
	}
	return m.Sum()
}

// StateKey renders the host state canonically, from scratch: the string
// twin of KeyHash64 that the oracle and debug output read.
func (h *Host) StateKey() string {
	b := make([]byte, 0, 96)
	b = append(b, "host"...)
	b = strconv.AppendInt(b, int64(h.ID), 10)
	b = append(b, "@s"...)
	b = strconv.AppendInt(b, int64(h.Loc.Sw), 10)
	b = append(b, ":p"...)
	b = strconv.AppendInt(b, int64(h.Loc.Port), 10)
	b = append(b, " budget="...)
	b = strconv.AppendInt(b, int64(h.SendBudget), 10)
	b = append(b, " credits="...)
	b = strconv.AppendInt(b, int64(h.Credits), 10)
	b = append(b, " replies="...)
	b = strconv.AppendInt(b, int64(h.ReplyBudget), 10)
	b = append(b, " sent="...)
	b = strconv.AppendInt(b, int64(h.SentCount), 10)
	b = append(b, " rep="...)
	b = strconv.AppendInt(b, int64(h.RepIdx), 10)
	if len(h.MoveTargets) > 0 {
		b = append(b, " moves=["...)
		for i, m := range h.MoveTargets {
			if i > 0 {
				b = append(b, ' ')
			}
			b = append(b, 's')
			b = strconv.AppendInt(b, int64(m.Sw), 10)
			b = append(b, ":p"...)
			b = strconv.AppendInt(b, int64(m.Port), 10)
		}
		b = append(b, ']')
	}
	b = append(b, " pend["...)
	for i, r := range h.PendingReplies {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, '(')
		b = append(b, r.Key()...)
		b = append(b, ')')
	}
	b = append(b, "] rcvd["...)
	for i, r := range h.Received {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, '(')
		b = append(b, r.Key()...)
		b = append(b, ')')
	}
	b = append(b, ']')
	return string(b)
}

// EchoReply is the standard layer-2 echo server behaviour: reply to
// unicast packets addressed to this host by swapping addresses and
// echoing the payload with an "re:" prefix — host B's side of the
// paper's layer-2 ping workload (§7).
func EchoReply(h *Host, rcv openflow.Header) (openflow.Header, bool) {
	if rcv.EthDst != h.MAC {
		return openflow.Header{}, false
	}
	rep := rcv
	rep.EthSrc, rep.EthDst = rcv.EthDst, rcv.EthSrc
	rep.IPSrc, rep.IPDst = rcv.IPDst, rcv.IPSrc
	rep.TPSrc, rep.TPDst = rcv.TPDst, rcv.TPSrc
	rep.Payload = "re:" + rcv.Payload
	return rep, true
}

// TCPServerReply models a server replying to TCP packets addressed to
// it: SYN begets SYN|ACK, other segments beget ACK.
func TCPServerReply(h *Host, rcv openflow.Header) (openflow.Header, bool) {
	if rcv.EthDst != h.MAC && rcv.IPDst != h.IP {
		return openflow.Header{}, false
	}
	if rcv.EthType != openflow.EthTypeIPv4 || rcv.IPProto != openflow.IPProtoTCP {
		return openflow.Header{}, false
	}
	rep := rcv
	rep.EthSrc, rep.EthDst = h.MAC, rcv.EthSrc
	rep.IPSrc, rep.IPDst = rcv.IPDst, rcv.IPSrc
	rep.TPSrc, rep.TPDst = rcv.TPDst, rcv.TPSrc
	if rcv.TCPFlags&openflow.TCPSyn != 0 {
		rep.TCPFlags = openflow.TCPSyn | openflow.TCPAck
	} else {
		rep.TCPFlags = openflow.TCPAck
	}
	rep.TCPSeq = 0
	rep.Payload = "re:" + rcv.Payload
	return rep, true
}

// NewClient builds a client host from its topology record.
func NewClient(spec *topo.Host, sends, burst int, seed openflow.Header) *Host {
	credits := burst
	if burst <= 0 {
		credits = UnlimitedCredits
	}
	return &Host{
		ID: spec.ID, Name: spec.Name, MAC: spec.MAC, IP: spec.IP,
		Loc: spec.Locations[0], MoveTargets: append([]topo.PortKey(nil), spec.Locations[1:]...),
		SendBudget: sends, Credits: credits, Seed: seed,
	}
}

// NewServer builds a replying host from its topology record.
func NewServer(spec *topo.Host, reply ReplyFunc, replyBudget int) *Host {
	return &Host{
		ID: spec.ID, Name: spec.Name, MAC: spec.MAC, IP: spec.IP,
		Loc: spec.Locations[0], MoveTargets: append([]topo.PortKey(nil), spec.Locations[1:]...),
		Credits: UnlimitedCredits, Reply: reply, ReplyBudget: replyBudget,
	}
}
