package canon

import "testing"

// TestMixGolden pins the mixer's constants: the structural hash must
// give the same value in every process and on every platform, or
// fingerprints recorded by one run (trace artifacts, pinned counts)
// would not reproduce in another.
func TestMixGolden(t *testing.T) {
	if got, want := NewMix(7).Word(1).Word(2).Str("ping").Sum(), uint64(0x6fb1bc3f9872bd3e); got != want {
		t.Errorf("Mix golden = %#x, want %#x", got, want)
	}
	d := NewMix128().Word(1).Word(2).Sum()
	if want := (Digest{0x97db77fd6d48cd19, 0x400f8792b8373db7}); d != want {
		t.Errorf("Mix128 golden = %#x, want %#x", d, want)
	}
}

// TestMixSeparates checks the properties callers lean on: word order
// matters, the tag matters, Str is length-delimited (so adjacent
// strings cannot trade bytes across their boundary) and covers every
// byte of both the 8-byte words and the tail.
func TestMixSeparates(t *testing.T) {
	seen := map[uint64]string{}
	add := func(name string, m Mix) {
		t.Helper()
		if prev, dup := seen[m.Sum()]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[m.Sum()] = name
	}
	add("1,2", NewMix(0).Word(1).Word(2))
	add("2,1", NewMix(0).Word(2).Word(1))
	add("tag1:1,2", NewMix(1).Word(1).Word(2))
	add("1,2,0", NewMix(0).Word(1).Word(2).Word(0))
	add(`"ab","c"`, NewMix(0).Str("ab").Str("c"))
	add(`"a","bc"`, NewMix(0).Str("a").Str("bc"))
	add(`"abc",""`, NewMix(0).Str("abc").Str(""))
	add(`""`, NewMix(0).Str(""))
	add(`"\x00"`, NewMix(0).Str("\x00"))
	base := []byte("0123456789abcdefXYZ") // two full words and a 3-byte tail
	add("base", NewMix(0).Str(string(base)))
	for i := range base {
		b := append([]byte(nil), base...)
		b[i] ^= 0x80
		add("base with byte flipped", NewMix(0).Str(string(b)))
	}
	if a, b := NewMix128().Word(5).Sum(), NewMix128().Word(5).Sum(); a != b {
		t.Error("Mix128 is not deterministic")
	}
	if d := NewMix128().Word(5).Sum(); d[0] == d[1] {
		t.Error("Mix128 lanes agree: the two lanes must be independently tagged")
	}
}
