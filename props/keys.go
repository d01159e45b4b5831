package props

import (
	"github.com/nice-go/nice/internal/canon"

	"sort"
	"strconv"

	"github.com/nice-go/nice/openflow"
)

// This file holds the property-side half of incremental state
// fingerprinting: a memoized StateKey cache (properties render once per
// mutation, not once per explored state) and hand-written sorted map
// encoders replacing the reflective canon.String walks that dominated
// the per-state fingerprint profile. The renderings only need to be
// deterministic and injective — the same property always renders through
// the same code path for the structural fingerprint and for OracleKey,
// so the formats are not pinned to the historical reflective output.

// cachedKey memoizes one rendered StateKey (and its 64-bit hash, which
// System.Fingerprint combines without re-hashing the string every
// state) between mutations. Properties embed it by value; Clone and
// ForkProp copy it, so a forked property (identical state) keeps the
// rendering.
type cachedKey struct {
	key   string
	hash  uint64
	valid bool
}

func (c *cachedKey) invalidate() { c.valid = false }

func (c *cachedKey) get(render func() string) string {
	if !c.valid {
		c.key = render()
		c.hash = canon.Hash64String(c.key)
		c.valid = true
	}
	return c.key
}

func (c *cachedKey) hash64(render func() string) uint64 {
	c.get(render)
	return c.hash
}

func appendPacketIDSet(b []byte, m map[openflow.PacketID]bool) []byte {
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, int64(id))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	b = append(b, '{')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, id, 10)
	}
	return append(b, '}')
}

func appendFlow(b []byte, f openflow.Flow) []byte {
	b = strconv.AppendUint(b, uint64(f.EthSrc), 16)
	b = append(b, '>')
	b = strconv.AppendUint(b, uint64(f.EthDst), 16)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(f.EthType), 16)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(uint32(f.IPSrc)), 16)
	b = append(b, '>')
	b = strconv.AppendUint(b, uint64(uint32(f.IPDst)), 16)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(f.IPProto), 10)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(f.TPSrc), 10)
	b = append(b, '>')
	b = strconv.AppendUint(b, uint64(f.TPDst), 10)
	return b
}

func flowBefore(a, b openflow.Flow) bool {
	switch {
	case a.EthSrc != b.EthSrc:
		return a.EthSrc < b.EthSrc
	case a.EthDst != b.EthDst:
		return a.EthDst < b.EthDst
	case a.EthType != b.EthType:
		return a.EthType < b.EthType
	case a.IPSrc != b.IPSrc:
		return a.IPSrc < b.IPSrc
	case a.IPDst != b.IPDst:
		return a.IPDst < b.IPDst
	case a.IPProto != b.IPProto:
		return a.IPProto < b.IPProto
	case a.TPSrc != b.TPSrc:
		return a.TPSrc < b.TPSrc
	default:
		return a.TPDst < b.TPDst
	}
}

func appendFlowSet(b []byte, m map[openflow.Flow]bool) []byte {
	flows := make([]openflow.Flow, 0, len(m))
	for f := range m {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool { return flowBefore(flows[i], flows[j]) })
	b = append(b, '{')
	for i, f := range flows {
		if i > 0 {
			b = append(b, ' ')
		}
		b = appendFlow(b, f)
	}
	return append(b, '}')
}
