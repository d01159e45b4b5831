package props

import (
	"slices"
	"strconv"

	"github.com/nice-go/nice/internal/cow"
	"github.com/nice-go/nice/openflow"
)

// This file holds the hand-written sorted map encoders the properties'
// StateKey renderings share, in place of the reflective canon.String
// walks that dominated the per-state fingerprint profile. A property
// renders its key from scratch; core.System caches the key's hash and
// renders again only when the property's controller.Versioned version
// moves. The renderings only need to be deterministic and injective —
// the same code path renders the key for the structural fingerprint and
// for OracleKey — so the formats are not pinned to the historical
// reflective output.

func appendPacketIDSet(b []byte, m *cow.Map[openflow.PacketID, bool]) []byte {
	var scratch [16]openflow.PacketID
	ids := scratch[:0]
	for id := range m.All() {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	b = append(b, '{')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, '}')
}

// flowKeys appends m's keys to scratch in Flow.Less order.
func flowKeys[V any](scratch []openflow.Flow, m *cow.Map[openflow.Flow, V]) []openflow.Flow {
	for f := range m.All() {
		scratch = append(scratch, f)
	}
	slices.SortFunc(scratch, func(f, g openflow.Flow) int {
		if f.Less(g) {
			return -1
		}
		return 1 // map keys: never equal
	})
	return scratch
}

func appendFlowSet(b []byte, m *cow.Map[openflow.Flow, bool]) []byte {
	var scratch [8]openflow.Flow
	b = append(b, '{')
	for i, f := range flowKeys(scratch[:0], m) {
		if i > 0 {
			b = append(b, ' ')
		}
		b = f.AppendKey(b)
	}
	return append(b, '}')
}
