package scenarios

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// wireLinearPing mirrors the registered pyswitch-linearhosts scenario
// as a wire submission: every field is expressible on the wire.
func wireLinearPing() *WireSpec {
	return &WireSpec{
		Version:      WireVersion,
		Name:         "wire-linear-ping",
		Summary:      "pyswitch on LinearHosts over the wire",
		Topology:     WireTopology{Kind: "linear-hosts", HostsPerSwitch: 2},
		App:          WireApp{Name: "pyswitch", Variant: "buggy"},
		ScaleName:    "switches",
		DefaultScale: 2,
		Hosts: []WireHost{
			{Name: "h1", Sends: 2, SendToLast: true},
			{Last: true, Reply: "echo", ReplyBudget: 1},
		},
		Properties:           []string{"StrictDirectPaths"},
		ExpectedProperty:     "StrictDirectPaths",
		StopAtFirstViolation: true,
		DisableSE:            true,
	}
}

func TestWireSpecRoundTrip(t *testing.T) {
	ws := wireLinearPing()
	data, err := ws.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	back, err := ParseWireSpec(data)
	if err != nil {
		t.Fatalf("ParseWireSpec: %v", err)
	}
	if !reflect.DeepEqual(ws, back) {
		t.Errorf("round trip not exact:\n sent %+v\n got  %+v", ws, back)
	}
	// And a second trip is bit-identical.
	data2, err := back.Encode()
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if string(data) != string(data2) {
		t.Errorf("second encode differs:\n %s\n %s", data, data2)
	}
}

func TestWireSpecRejectsUnknownField(t *testing.T) {
	_, err := ParseWireSpec([]byte(`{"version":1,"name":"x","bogus":true}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	if !strings.Contains(err.Error(), "bogus") {
		t.Errorf("error does not name the unknown field: %v", err)
	}
	_, err = ParseWireSpec([]byte(`{"version":1,"name":"x","hosts":[{"nmae":"h1"}]}`))
	if err == nil || !strings.Contains(err.Error(), "nmae") {
		t.Errorf("nested unknown field not named: %v", err)
	}
}

func TestWireSpecValidationNamesFields(t *testing.T) {
	cases := []struct {
		mutate    func(*WireSpec)
		wantField string
	}{
		{func(ws *WireSpec) { ws.Version = 2 }, "version"},
		{func(ws *WireSpec) { ws.Name = "" }, "name"},
		{func(ws *WireSpec) { ws.Topology.Kind = "torus" }, "topology.kind"},
		{func(ws *WireSpec) { ws.Topology.K = 3 }, "topology.kind"},
		{func(ws *WireSpec) { ws.App.Name = "nat" }, "app.name"},
		{func(ws *WireSpec) { ws.App.Variant = "fix-ix" }, "app.variant"},
		{func(ws *WireSpec) { ws.App.VIP = "10.0.0.1" }, "app.vip"},
		{func(ws *WireSpec) { ws.Hosts = nil }, "hosts"},
		{func(ws *WireSpec) { ws.Hosts[0].SendTo = "h2"; ws.Hosts[0].SendToLast = true }, "hosts[0].send_to_last"},
		{func(ws *WireSpec) { ws.Hosts[1].Name = "hLast" }, "hosts[1].last"},
		{func(ws *WireSpec) { ws.Hosts[1].Reply = "dns" }, "hosts[1].reply"},
		{func(ws *WireSpec) { ws.Hosts[1].Reply = "" }, "hosts[1].reply_budget"},
		{func(ws *WireSpec) { ws.Properties = []string{"NoTeleportation"} }, "properties[0]"},
		{func(ws *WireSpec) { ws.ExpectedProperty = "NoBlackHoles" }, "expected_property"},
		{func(ws *WireSpec) { ws.ScaleName = "" }, "default_scale"},
		{func(ws *WireSpec) { ws.MaxDepth = -1 }, "max_depth"},
	}
	for _, tc := range cases {
		ws := wireLinearPing()
		tc.mutate(ws)
		err := ws.Validate()
		if err == nil {
			t.Errorf("%s: invalid spec accepted", tc.wantField)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantField) {
			t.Errorf("error does not name %s: %v", tc.wantField, err)
		}
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error chain has no *FieldError: %v", tc.wantField, err)
		}
	}
}

func TestWireSpecVIPParsing(t *testing.T) {
	for _, bad := range []string{"10.0.0", "10.0.0.256", "a.b.c.d", "10.0.0.01", "10.0.0.1.2"} {
		ws := wireLinearPing()
		ws.App = WireApp{Name: "loadbalancer", VIP: bad}
		if err := ws.Validate(); err == nil || !strings.Contains(err.Error(), "app.vip") {
			t.Errorf("vip %q: want app.vip error, got %v", bad, err)
		}
	}
	ws := wireLinearPing()
	ws.App = WireApp{Name: "loadbalancer", VIP: "192.168.0.7", Reconfigs: 1}
	if err := ws.Validate(); err != nil {
		t.Errorf("valid loadbalancer app rejected: %v", err)
	}
}

// TestWireSpecCompileFindsViolation is the whole point of the wire
// layer: a JSON document travels, compiles to a Spec, builds a Config
// and a real search reproduces the expected violation.
func TestWireSpecCompileFindsViolation(t *testing.T) {
	ws := wireLinearPing()
	data, err := ws.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseWireSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := back.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	sc := sp.Scenario()
	rep := dfs(sc.Config(0))
	found := false
	for _, v := range rep.Violations {
		if v.Property == "StrictDirectPaths" {
			found = true
		}
	}
	if !found {
		t.Errorf("compiled wire spec found no StrictDirectPaths violation (got %d violations)", len(rep.Violations))
	}
	// The repaired column compiles too, and stays clean.
	if !sc.HasFixed() {
		t.Fatal("buggy wire spec lost its fixed build")
	}
	if rep := dfs(sc.FixedConfig(0)); len(rep.Violations) != 0 {
		t.Errorf("fixed variant violated: %v", rep.Violations)
	}
}

func TestWireSpecCompileAllApps(t *testing.T) {
	for _, app := range []WireApp{
		{Name: "pyswitch"},
		{Name: "loadbalancer", VIP: "10.0.0.100", Reconfigs: 1},
		{Name: "energyte", Threshold: 100, Polls: 1},
	} {
		ws := wireLinearPing()
		ws.App = app
		sp, err := ws.Compile()
		if err != nil {
			t.Errorf("%s: %v", app.Name, err)
			continue
		}
		cfg := sp.Scenario().Config(0)
		if cfg.App == nil {
			t.Errorf("%s: compiled config has no app", app.Name)
		}
	}
	// A spec pinned to a non-buggy variant has no fixed column.
	ws := wireLinearPing()
	ws.App.Variant = "fixed"
	sp, err := ws.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Scenario().HasFixed() {
		t.Error("variant-pinned spec grew a fixed build")
	}
}
