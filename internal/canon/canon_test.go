package canon

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBasicKinds(t *testing.T) {
	cases := []struct {
		v    any
		want string
	}{
		{true, "true"},
		{42, "42"},
		{int8(-3), "-3"},
		{uint16(9), "9"},
		{3.5, "3.5"},
		{"hi", `"hi"`},
		{[]int{1, 2}, "[1 2]"},
		{[2]string{"a", "b"}, `["a" "b"]`},
		{[]int(nil), "[]"},
		{map[string]int(nil), "{}"},
	}
	for _, c := range cases {
		if got := String(c.v); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

// TestMapOrderIndependence is the property canon exists for: map
// renderings are independent of insertion order.
func TestMapOrderIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		keys := r.Perm(20)
		m1 := make(map[int]string)
		m2 := make(map[int]string)
		for _, k := range keys {
			m1[k] = strings.Repeat("x", k%3)
		}
		for i := len(keys) - 1; i >= 0; i-- {
			m2[keys[i]] = strings.Repeat("x", keys[i]%3)
		}
		if String(m1) != String(m2) {
			t.Fatal("map renderings differ across insertion orders")
		}
	}
}

func TestNestedMapsAndStructs(t *testing.T) {
	type inner struct {
		A int
		b string // unexported fields are included
	}
	type outer struct {
		M map[string]inner
		P *inner
		I any
	}
	v := outer{
		M: map[string]inner{"k": {A: 1, b: "s"}},
		P: &inner{A: 2, b: "t"},
		I: 7,
	}
	got := String(v)
	for _, want := range []string{"A=1", `b="s"`, "A=2", "7"} {
		if !strings.Contains(got, want) {
			t.Errorf("rendering %q missing %q", got, want)
		}
	}
}

func TestNilsAndCycles(t *testing.T) {
	type node struct {
		Next *node
	}
	n := &node{}
	n.Next = n
	got := String(n)
	if !strings.Contains(got, "<cycle>") {
		t.Errorf("cycle not detected: %q", got)
	}
	if String((*node)(nil)) != "<nil>" {
		t.Error("nil pointer rendering wrong")
	}
	var i any
	if String(i) != "<nil>" {
		t.Error("nil interface rendering wrong")
	}
}

type canonStringer struct{ hidden int }

func (c canonStringer) CanonicalString() string { return "custom" }

func TestCanonicalStringerHonored(t *testing.T) {
	if String(canonStringer{hidden: 9}) != "custom" {
		t.Error("CanonicalString not honored")
	}
}

func TestFuncsRenderOnlyNilness(t *testing.T) {
	type holder struct {
		F func()
	}
	a := String(holder{F: func() {}})
	b := String(holder{F: func() {}})
	if a != b {
		t.Error("distinct func identities leaked into rendering")
	}
	if String(holder{}) == a {
		t.Error("nil func and non-nil func render identically")
	}
}

// TestEqualValuesEqualStrings: structurally equal values render equal.
func TestEqualValuesEqualStrings(t *testing.T) {
	f := func(a map[uint8]int16, s []int32) bool {
		b := make(map[uint8]int16, len(a))
		for k, v := range a {
			b[k] = v
		}
		s2 := append([]int32(nil), s...)
		return String(a) == String(b) && String(s) == String(s2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHash64AndHashString(t *testing.T) {
	if Hash64String(String("a")) == Hash64String(String("b")) {
		t.Error("trivial hash collision")
	}
	if Hash128("x").Hex() == Hash128("y").Hex() {
		t.Error("trivial string-hash collision")
	}
	if len(Hash128("x").Hex()) != 32 {
		t.Errorf("digest length %d, want 32 hex chars", len(Hash128("x").Hex()))
	}
	if Hash128("same").Hex() != Hash128("same").Hex() {
		t.Error("hash not deterministic")
	}
}
