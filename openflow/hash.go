package openflow

import "github.com/nice-go/nice/internal/canon"

// This file is the structural twin of keys.go: each hash folds exactly
// the fields the matching appendKey renders (no packet IDs, no Seq,
// rule counters only on request) into a canon.Mix as words, so equal
// keys hash equal and the production fingerprint path never builds the
// string. The fuzz targets in hash_test.go hold each pair together.

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Hash folds every header field into m (the fields of Header.Key).
func (h Header) Hash(m canon.Mix) canon.Mix {
	m = m.Word(uint64(h.EthSrc)).Word(uint64(h.EthDst))
	m = m.Word(uint64(h.IPSrc)<<32 | uint64(h.IPDst))
	m = m.Word(uint64(h.EthType)<<48 | uint64(h.VLAN)<<32 | uint64(h.TPSrc)<<16 | uint64(h.TPDst))
	m = m.Word(uint64(h.TCPSeq)<<32 | uint64(h.VLANPCP)<<24 | uint64(h.IPProto)<<16 |
		uint64(h.IPTOS)<<8 | uint64(h.TCPFlags))
	return m.Word(uint64(h.ArpOp)).Str(h.Payload)
}

// hash folds the constrained fields in, truncated as Match.Key renders
// them (IP values to 32 bits, Ethernet addresses to 48).
func (m Match) hash(h canon.Mix) canon.Mix {
	var prefix uint64
	if m.Has(FieldIPSrc) {
		prefix = uint64(m.ipSrcBits)
	}
	if m.Has(FieldIPDst) {
		prefix |= uint64(m.ipDstBits) << 8
	}
	h = h.Word(uint64(m.present) | prefix<<32)
	for f := Field(0); int(f) < numMatchable; f++ {
		if !m.Has(f) {
			continue
		}
		v := m.values[f]
		switch f {
		case FieldIPSrc, FieldIPDst:
			v = uint64(uint32(v))
		case FieldEthSrc, FieldEthDst:
			v &= ethAddrMask
		}
		h = h.Word(v)
	}
	return h
}

func (a Action) hash(h canon.Mix) canon.Mix {
	h = h.Word(uint64(a.Type))
	switch a.Type {
	case ActionOutput:
		h = h.Word(uint64(a.Port))
	case ActionSetField:
		h = h.Word(uint64(a.Field)).Word(a.Value)
	}
	return h
}

// hashActions folds an action list in, in order. An empty list hashes
// as the single explicit drop it renders as.
func hashActions(h canon.Mix, actions []Action) canon.Mix {
	if len(actions) == 0 {
		return Drop().hash(h.Word(1))
	}
	h = h.Word(uint64(len(actions)))
	for _, a := range actions {
		h = a.hash(h)
	}
	return h
}

// hash folds the rule in: the fields of Rule.Key, plus the counters and
// ages when counters is set (appendStateKey's variant).
func (r Rule) hash(h canon.Mix, counters bool) canon.Mix {
	h = r.Match.hash(h.Word(uint64(r.Priority)))
	h = hashActions(h, r.Actions).Word(uint64(r.IdleTimeout)).Word(uint64(r.HardTimeout))
	if counters {
		h = h.Word(r.PacketCount).Word(r.ByteCount).Word(uint64(r.Age)).Word(uint64(r.IdleAge))
	}
	return h
}

// digest is the rule's finalised hash — one term of the flow table's
// commutative sum.
func (r Rule) digest(counters bool) uint64 { return r.hash(canon.NewMix(0), counters).Sum() }

// FreshKeyHash64 hashes the fields Msg.Key renders from scratch,
// ignoring the memo MemoKeyHash stores.
func (m Msg) FreshKeyHash64() uint64 {
	h := canon.NewMix(uint64(m.Type))
	switch m.Type {
	case MsgFlowMod:
		h = h.Word(uint64(m.Cmd))
		if m.Cmd == FlowAdd {
			h = m.Rule.hash(h, false)
		} else {
			h = m.Rule.Match.hash(h).Word(uint64(m.Rule.Priority))
		}
	case MsgPacketOut:
		h = m.Packet.Header.Hash(h.Word(uint64(m.Buffer))).Word(uint64(m.InPort))
		h = hashActions(h, m.Actions)
	case MsgPacketIn:
		h = h.Word(uint64(m.Switch)).Word(uint64(m.InPort)).Word(uint64(m.Buffer))
		h = m.Packet.Header.Hash(h.Word(boolWord(m.Reason == ReasonAction)))
	case MsgStatsRequest:
		h = h.Word(uint64(m.Switch)).Word(uint64(m.StatsPort))
	case MsgStatsReply:
		h = h.Word(uint64(m.Switch)).Word(uint64(len(m.Stats)))
		for _, s := range m.Stats {
			h = h.Word(uint64(s.Port)).Word(s.TxBytes).Word(s.RxBytes)
		}
	case MsgBarrierRequest:
		h = h.Word(uint64(m.Xid))
	case MsgBarrierReply:
		h = h.Word(uint64(m.Switch)).Word(uint64(m.Xid))
	case MsgSwitchJoin, MsgSwitchLeave:
		h = h.Word(uint64(m.Switch))
	case MsgPortStatus:
		h = h.Word(uint64(m.Switch)).Word(uint64(m.InPort)).Word(boolWord(m.PortUp))
	}
	return h.Sum()
}
