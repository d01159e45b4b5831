package canon

import "math/bits"

// Mix is the running state of the structural 64-bit hash: components
// feed their fields into it a machine word at a time instead of
// rendering a string and hashing its bytes. The constants are fixed, so
// a value hashes identically in every process (no per-process seed);
// System.Fingerprint's golden-digest test pins that.
//
// One step xors the word into the state and folds the 128-bit product
// with an odd constant back to 64 bits, so every input bit reaches
// every state bit in a single multiply. Mix is a value type: chains
// read m = m.Word(a).Word(b) and stay in registers.
type Mix uint64

const (
	mixSeed  = 0x9e3779b97f4a7c15
	mixMul   = 0xd1342543de82ef95
	mixFinal = 0xa0761d6478bd642f
)

// NewMix starts a hash. tag separates value kinds (and the lanes of
// Mix128) so structurally different values never share a word sequence.
func NewMix(tag uint64) Mix { return Mix(mixSeed).Word(tag) }

// Word folds one 64-bit word into the hash.
func (m Mix) Word(v uint64) Mix {
	hi, lo := bits.Mul64(uint64(m)^v, mixMul)
	return Mix(hi ^ lo)
}

// Str folds a string in: its length, then its bytes eight to a word
// (little-endian, the last word zero-padded). The length word keeps
// adjacent strings from sharing a boundary.
func (m Mix) Str(s string) Mix {
	m = m.Word(uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		m = m.Word(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
	}
	if len(s) > 0 {
		var tail uint64
		for i := 0; i < len(s); i++ {
			tail |= uint64(s[i]) << (8 * uint(i))
		}
		m = m.Word(tail)
	}
	return m
}

// Sum finalises the hash with one more fold under a second constant.
// Finalised sums are uniform enough to be added commutatively — the
// flow table's order-independent digest is a wrapping sum of them.
func (m Mix) Sum() uint64 {
	hi, lo := bits.Mul64(uint64(m)^mixSeed, mixFinal)
	return hi ^ lo
}

// Mix128 runs two differently tagged Mix lanes over the same words: the
// 128-bit combiner System.Fingerprint feeds component hashes into.
type Mix128 [2]Mix

// NewMix128 starts a 128-bit hash.
func NewMix128() Mix128 { return Mix128{NewMix(1), NewMix(2)} }

// Word folds one word into both lanes.
func (m Mix128) Word(v uint64) Mix128 { return Mix128{m[0].Word(v), m[1].Word(v)} }

// Sum finalises both lanes into a Digest.
func (m Mix128) Sum() Digest { return Digest{m[0].Sum(), m[1].Sum()} }
