package scenarios

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
)

// serviceDocSpec is the inline spec docs/SERVICE.md submits: the first
// json block of the form {"spec": {…}}.
func serviceDocSpec(t testing.TB) []byte {
	doc, err := os.ReadFile("../docs/SERVICE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(doc), "```json\n{\"spec\": ")
	block, _, ok2 := strings.Cut(block, "\n```")
	var req struct {
		Spec json.RawMessage `json:"spec"`
	}
	if !ok || !ok2 || json.Unmarshal([]byte(`{"spec": `+block), &req) != nil {
		t.Fatal("docs/SERVICE.md: no {\"spec\": …} json block")
	}
	return req.Spec
}

// namesField reports whether every failure in err says where it is: a
// validation error's JSON path, or the field a decode error stopped at.
func namesField(err error) bool {
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range joined.Unwrap() {
			if !namesField(e) {
				return false
			}
		}
		return true
	}
	var fe *FieldError
	var te *json.UnmarshalTypeError
	switch {
	case errors.As(err, &fe):
		return fe.Field != ""
	case errors.As(err, &te):
		return te.Field != ""
	}
	return strings.Contains(err.Error(), "unknown field")
}

// FuzzWireSpec: whatever bytes a client submits, decoding and compiling
// never panic; a spec that decodes compiles and builds its topology, at
// the largest scale it accepts when the scale sizes it, with at most
// MaxHosts hosts; and every rejection names the field at fault — except
// a payload that is not one JSON object at all (a syntax error, a
// non-object, trailing data), which has none.
func FuzzWireSpec(f *testing.F) {
	spec := string(serviceDocSpec(f))
	if _, err := ParseWireSpec([]byte(spec)); err != nil {
		f.Fatalf("docs/SERVICE.md's inline spec: %v", err)
	}
	f.Add([]byte(spec))
	for _, edit := range [][2]string{
		{`"linear-hosts"`, `"torus"`},
		{`"send_to_last": true`, `"send_to": ""`},
		{`"sends": 2`, `"sends": "two"`},
		{`"version": 1`, `"version": 1, "bogus": {}`},
		{`"StrictDirectPaths"]`, `"NoSuchProperty"]`},
		{`"pyswitch"`, `"energyte", "vip": "10.0.0.300"`},
		{`"switches": 2, "hosts_per_switch": 2`, `"hosts_per_switch": 3`},
		{`"kind": "linear-hosts", "switches": 2, "hosts_per_switch": 2`, `"kind": "fat-tree"`},
		{`"kind": "linear-hosts", "switches": 2, "hosts_per_switch": 2`, `"kind": "mesh", "host_count": 1024`},
	} {
		f.Add([]byte(strings.Replace(spec, edit[0], edit[1], 1)))
	}
	f.Add([]byte(spec + spec))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ws, err := ParseWireSpec(data)
		if err == nil {
			sp, err := ws.Compile()
			if err != nil {
				t.Fatalf("decoded but does not compile: %v", err)
			}
			if n := len(sp.Topology(sp.MaxScale).Hosts()); n > MaxHosts {
				t.Fatalf("%+v at scale %d builds %d hosts, over %d", ws.Topology, sp.MaxScale, n, MaxHosts)
			}
			return
		}
		var syntax *json.SyntaxError
		var shape *json.UnmarshalTypeError
		notOneObject := errors.As(err, &syntax) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
			(errors.As(err, &shape) && shape.Field == "") || strings.Contains(err.Error(), "trailing data")
		if !notOneObject && !namesField(err) {
			t.Fatalf("rejection names no field: %v", err)
		}
	})
}
