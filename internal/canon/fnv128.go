package canon

import "math/bits"

// Digest is a fixed-width 128-bit state fingerprint: [0] holds the high
// 64 bits, [1] the low 64 bits, matching the byte order of the standard
// library's fnv.New128a sum. Digests are comparable, so explored-state
// sets key maps by them directly instead of by 32-character hex strings.
type Digest [2]uint64

// Hex renders the digest as 32 lowercase hex characters — byte-for-byte
// identical to the historical HashString output (fmt.Sprintf("%x") over
// fnv.New128a's sum).
func (d Digest) Hex() string {
	var buf [32]byte
	const hexdigits = "0123456789abcdef"
	for i := 0; i < 8; i++ {
		b := byte(d[0] >> (56 - 8*i))
		buf[2*i] = hexdigits[b>>4]
		buf[2*i+1] = hexdigits[b&0xf]
	}
	for i := 0; i < 8; i++ {
		b := byte(d[1] >> (56 - 8*i))
		buf[16+2*i] = hexdigits[b>>4]
		buf[16+2*i+1] = hexdigits[b&0xf]
	}
	return string(buf[:])
}

// FNV-1a constants (the 128-bit prime is 2^88 + 2^8 + 0x3b, applied via
// the same shift/multiply decomposition the standard library uses; the
// 64-bit constants are the usual ones).
const (
	offset128Lower  = 0x62b821756295c58d
	offset128Higher = 0x6c62272e07bb0142
	prime128Lower   = 0x13b
	prime128Shift   = 24

	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Hasher is a streaming FNV-1a 128-bit hasher that consumes strings
// without any []byte conversion or allocation. It digests canonical
// strings — the oracle serialization and application keys; the
// production fingerprint combines component hashes word-wise (Mix128).
type Hasher struct {
	hi, lo uint64
}

// NewHasher returns a Hasher at the FNV-128a offset basis.
func NewHasher() Hasher {
	return Hasher{hi: offset128Higher, lo: offset128Lower}
}

func (h *Hasher) mix(c byte) {
	h.lo ^= uint64(c)
	// Multiply the 128-bit state by the FNV prime modulo 2^128.
	s0, s1 := bits.Mul64(prime128Lower, h.lo)
	s0 += h.lo<<prime128Shift + prime128Lower*h.hi
	h.lo = s1
	h.hi = s0
}

// WriteString hashes every byte of s.
func (h *Hasher) WriteString(s string) {
	for i := 0; i < len(s); i++ {
		h.mix(s[i])
	}
}

// Sum returns the current digest.
func (h *Hasher) Sum() Digest { return Digest{h.hi, h.lo} }

// Hash128 returns the FNV-1a 128-bit digest of s. Hash128(s).Hex() is
// identical to the historical HashString(s).
func Hash128(s string) Digest {
	h := NewHasher()
	h.WriteString(s)
	return h.Sum()
}

// Hash64String is FNV-1a 64-bit over a string, allocation-free — the
// hash properties memoize alongside their state keys.
func Hash64String(s string) uint64 {
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
