package scenarios

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"

	"github.com/nice-go/nice/apps/energyte"
	"github.com/nice-go/nice/apps/loadbalancer"
	"github.com/nice-go/nice/apps/pyswitch"
	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/hosts"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/props"
	"github.com/nice-go/nice/topo"
)

// WireVersion is the current wire-schema version; DecodeWireSpec
// rejects payloads declaring any other version.
const WireVersion = 1

// WireSpec is the versioned JSON encoding of a declarative scenario.
// It is the subset of Spec that survives a network boundary: every
// function-valued Spec field (Topology, NewApp, Properties, Seed,
// Reply, …) becomes a name resolved against a registry at compile
// time, so a WireSpec round-trips through JSON exactly — marshal,
// unmarshal and compare with == on every field (slices excepted).
//
// Decoding rejects unknown fields; Validate names the offending field
// in every error, so a malformed submission fails loudly before any
// topology is half-built.
type WireSpec struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	Summary string `json:"summary,omitempty"`

	Topology WireTopology `json:"topology"`
	App      WireApp      `json:"app"`
	Hosts    []WireHost   `json:"hosts"`

	// Properties names the checked correctness properties; see
	// WireProperties for the accepted names.
	Properties       []string `json:"properties"`
	ExpectedProperty string   `json:"expected_property,omitempty"`

	ScaleName    string `json:"scale_name,omitempty"`
	DefaultScale int    `json:"default_scale,omitempty"`

	StopAtFirstViolation bool `json:"stop_at_first_violation,omitempty"`
	DisableSE            bool `json:"disable_se,omitempty"`
	AtomicEnv            bool `json:"atomic_env,omitempty"`
	MaxDepth             int  `json:"max_depth,omitempty"`
}

// WireTopology names a generated topology. Kind selects the generator;
// the other fields are its parameters. A zero size parameter means
// "use the scenario scale" where the generator has a scale knob.
type WireTopology struct {
	// Kind is one of "single-switch", "star", "mesh", "linear-hosts",
	// "fat-tree".
	Kind string `json:"kind"`

	// HostCount parameterizes star and mesh (0 = scenario scale).
	HostCount int `json:"host_count,omitempty"`
	// Switches and HostsPerSwitch parameterize linear-hosts
	// (Switches 0 = scenario scale; HostsPerSwitch 0 = 1).
	Switches       int `json:"switches,omitempty"`
	HostsPerSwitch int `json:"hosts_per_switch,omitempty"`
	// K parameterizes fat-tree (0 = scenario scale).
	K int `json:"k,omitempty"`
	// Names optionally overrides generated host names (star/mesh).
	Names []string `json:"names,omitempty"`
}

// MaxHosts bounds the topology a request can build: a fat tree of
// arity maxFatTreeK has 16³/4 = 1 024 hosts and builds in ~30 ms (arity
// 64: over a minute and 250 MB). A full mesh's links grow with the
// square of its hosts, so it stops at maxMeshHosts (1 024 hosts would
// be 523 776 links, ~18 s to build).
const (
	MaxHosts     = 1024
	maxFatTreeK  = 16
	maxMeshHosts = 64
)

// size names the kind's size parameter, its value (0 = the scenario
// scale) and the largest value it accepts.
func (wt *WireTopology) size() (field string, v, limit int) {
	switch wt.Kind {
	case "star":
		return "host_count", wt.HostCount, MaxHosts
	case "mesh":
		return "host_count", wt.HostCount, maxMeshHosts
	case "linear-hosts":
		return "switches", wt.Switches, MaxHosts / max(wt.HostsPerSwitch, 1)
	case "fat-tree":
		return "k", wt.K, maxFatTreeK
	}
	return "", 0, 0
}

// maxScale is the largest scale the topology accepts when the scale
// sizes it, and 0 when it does not.
func (wt *WireTopology) maxScale() int {
	if _, v, limit := wt.size(); v == 0 {
		return limit
	}
	return 0
}

// WireApp names the controller application under test.
type WireApp struct {
	// Name is one of "pyswitch", "loadbalancer", "energyte".
	Name string `json:"name"`
	// Variant selects the repair level: "buggy" (default) or "fixed"
	// for every app; loadbalancer also accepts "fix-iv", "fix-v",
	// "fix-vi", "fix-vii"; energyte accepts "fix-viii", "fix-ix",
	// "fix-x", "fix-xi".
	Variant string `json:"variant,omitempty"`

	// VIP is the loadbalancer's virtual IP as a dotted quad
	// (default "10.0.0.100"); Reconfigs its policy-change budget.
	VIP       string `json:"vip,omitempty"`
	Reconfigs int    `json:"reconfigs,omitempty"`

	// Threshold and Polls parameterize energyte.
	Threshold uint64 `json:"threshold,omitempty"`
	Polls     int    `json:"polls,omitempty"`
}

// WireHost is the JSON encoding of a HostSpec. The function-valued
// HostSpec fields become names: Reply is "" (sink), "echo" or
// "tcp-server"; generated clients always use the PingBetween seed.
type WireHost struct {
	Name string `json:"name,omitempty"`
	Last bool   `json:"last,omitempty"`

	Sends      int  `json:"sends,omitempty"`
	ScaleSends bool `json:"scale_sends,omitempty"`
	Burst      int  `json:"burst,omitempty"`

	SendTo     string `json:"send_to,omitempty"`
	SendToLast bool   `json:"send_to_last,omitempty"`

	Reply       string `json:"reply,omitempty"`
	ReplyBudget int    `json:"reply_budget,omitempty"`
}

// FieldError is a validation failure naming the offending wire field
// (JSON path, e.g. "hosts[1].send_to").
type FieldError struct {
	Field string
	Msg   string
}

func (e *FieldError) Error() string { return e.Field + ": " + e.Msg }

func fieldErr(field, format string, args ...any) *FieldError {
	return &FieldError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// wireProps is the registry of property names accepted on the wire —
// the nullary constructors from props.
var wireProps = map[string]func() core.Property{
	"NoForwardingLoops":  func() core.Property { return props.NewNoForwardingLoops() },
	"NoBlackHoles":       func() core.Property { return props.NewNoBlackHoles() },
	"NoForgottenPackets": func() core.Property { return props.NewNoForgottenPackets() },
	"DirectPaths":        func() core.Property { return props.NewDirectPaths() },
	"StrictDirectPaths":  func() core.Property { return props.NewStrictDirectPaths() },
}

// wireReplies is the registry of server reply behaviours.
var wireReplies = map[string]hosts.ReplyFunc{
	"echo":       hosts.EchoReply,
	"tcp-server": hosts.TCPServerReply,
}

// WireProperties lists the property names a WireSpec may reference,
// sorted lexically.
func WireProperties() []string { return slices.Sorted(maps.Keys(wireProps)) }

// WireReplies lists the reply-behaviour names a WireHost may
// reference, sorted lexically.
func WireReplies() []string { return slices.Sorted(maps.Keys(wireReplies)) }

// DecodeWireSpec parses a JSON wire submission, rejecting unknown
// fields and any schema version other than WireVersion. It validates
// before returning, so a non-nil *WireSpec is compilable.
func DecodeWireSpec(r io.Reader) (*WireSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var ws WireSpec
	if err := dec.Decode(&ws); err != nil {
		if strings.Contains(err.Error(), "unknown field") {
			return nil, fmt.Errorf("wire spec: %w", err)
		}
		return nil, fmt.Errorf("wire spec: malformed JSON: %w", err)
	}
	// A second document in the same payload is as suspect as an
	// unknown field.
	if dec.More() {
		return nil, errors.New("wire spec: trailing data after spec document")
	}
	if err := ws.Validate(); err != nil {
		return nil, err
	}
	return &ws, nil
}

// ParseWireSpec is DecodeWireSpec over a byte slice.
func ParseWireSpec(data []byte) (*WireSpec, error) {
	return DecodeWireSpec(bytes.NewReader(data))
}

// Encode renders the spec as its canonical wire JSON. The output
// decodes back (DecodeWireSpec) to an identical WireSpec.
func (ws *WireSpec) Encode() ([]byte, error) {
	if err := ws.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(ws)
}

// Validate checks every field, returning all failures joined; each
// error is a *FieldError naming the offending field.
func (ws *WireSpec) Validate() error {
	var errs []error
	bad := func(field, format string, args ...any) {
		errs = append(errs, fieldErr(field, format, args...))
	}
	if ws.Version != WireVersion {
		bad("version", "unsupported wire version %d (want %d)", ws.Version, WireVersion)
	}
	if ws.Name == "" {
		bad("name", "required")
	}
	ws.Topology.validate(&errs)
	ws.App.validate(&errs)
	if len(ws.Hosts) == 0 {
		bad("hosts", "at least one modelled host required")
	}
	for i := range ws.Hosts {
		ws.Hosts[i].validate("hosts["+strconv.Itoa(i)+"]", &errs)
	}
	if len(ws.Properties) == 0 {
		bad("properties", "at least one property required")
	}
	for i, p := range ws.Properties {
		if _, ok := wireProps[p]; !ok {
			bad("properties["+strconv.Itoa(i)+"]", "unknown property %q (known: %s)",
				p, strings.Join(WireProperties(), ", "))
		}
	}
	if ws.ExpectedProperty != "" {
		found := false
		for _, p := range ws.Properties {
			if p == ws.ExpectedProperty {
				found = true
			}
		}
		if !found {
			bad("expected_property", "%q is not among properties", ws.ExpectedProperty)
		}
	}
	if ws.DefaultScale < 0 {
		bad("default_scale", "must be >= 0")
	}
	if limit := ws.Topology.maxScale(); limit > 0 && ws.DefaultScale > limit {
		bad("default_scale", "%d exceeds the limit of %d for a %s", ws.DefaultScale, limit, ws.Topology.Kind)
	}
	if ws.MaxDepth < 0 {
		bad("max_depth", "must be >= 0")
	}
	return errors.Join(errs...)
}

func (wt *WireTopology) validate(errs *[]error) {
	bad := func(field, format string, args ...any) {
		*errs = append(*errs, fieldErr("topology."+field, format, args...))
	}
	switch wt.Kind {
	case "single-switch":
		if wt.HostCount != 0 || wt.K != 0 || wt.Switches != 0 || wt.HostsPerSwitch != 0 || len(wt.Names) != 0 {
			bad("kind", "single-switch takes no parameters")
		}
	case "star", "mesh":
		if wt.HostCount < 0 || wt.HostCount == 1 {
			bad("host_count", "must be 0 (the scenario scale) or >= 2")
		}
		if len(wt.Names) != 0 && len(wt.Names) != wt.HostCount {
			bad("names", "%d names need host_count %d", len(wt.Names), len(wt.Names))
		}
		for i, n := range wt.Names {
			if n == "" || slices.Contains(wt.Names[:i], n) {
				bad("names["+strconv.Itoa(i)+"]", "empty or repeated host name %q", n)
			}
		}
		if wt.K != 0 || wt.Switches != 0 || wt.HostsPerSwitch != 0 {
			bad("kind", "%s takes only host_count and names", wt.Kind)
		}
	case "linear-hosts":
		if wt.Switches < 0 {
			bad("switches", "must be >= 0")
		}
		if wt.HostsPerSwitch < 0 {
			bad("hosts_per_switch", "must be >= 0")
		}
		if wt.HostCount != 0 || wt.K != 0 || len(wt.Names) != 0 {
			bad("kind", "linear-hosts takes only switches and hosts_per_switch")
		}
	case "fat-tree":
		if wt.K < 0 {
			bad("k", "must be >= 0")
		}
		if wt.K != 0 && wt.K%2 != 0 {
			bad("k", "fat-tree arity must be even, got %d", wt.K)
		}
		if wt.HostCount != 0 || wt.Switches != 0 || wt.HostsPerSwitch != 0 || len(wt.Names) != 0 {
			bad("kind", "fat-tree takes only k")
		}
	case "":
		bad("kind", "required")
	default:
		bad("kind", "unknown topology kind %q (known: single-switch, star, mesh, linear-hosts, fat-tree)", wt.Kind)
	}
	if wt.HostsPerSwitch > MaxHosts {
		bad("hosts_per_switch", "%d exceeds the limit of %d", wt.HostsPerSwitch, MaxHosts)
	}
	if field, v, limit := wt.size(); v > limit {
		bad(field, "%d exceeds the limit of %d", v, limit)
	}
}

func (wa *WireApp) validate(errs *[]error) {
	bad := func(field, format string, args ...any) {
		*errs = append(*errs, fieldErr("app."+field, format, args...))
	}
	variants := map[string][]string{
		"pyswitch":     {"", "buggy", "fixed"},
		"loadbalancer": {"", "buggy", "fix-iv", "fix-v", "fix-vi", "fix-vii", "fixed"},
		"energyte":     {"", "buggy", "fix-viii", "fix-ix", "fix-x", "fix-xi", "fixed"},
	}
	allowed, ok := variants[wa.Name]
	if !ok {
		if wa.Name == "" {
			bad("name", "required")
		} else {
			bad("name", "unknown app %q (known: energyte, loadbalancer, pyswitch)", wa.Name)
		}
		return
	}
	okVariant := false
	for _, v := range allowed {
		if wa.Variant == v {
			okVariant = true
		}
	}
	if !okVariant {
		bad("variant", "unknown variant %q for app %s", wa.Variant, wa.Name)
	}
	if wa.Name != "loadbalancer" && (wa.VIP != "" || wa.Reconfigs != 0) {
		bad("vip", "only loadbalancer takes vip/reconfigs")
	}
	if wa.Name == "loadbalancer" && wa.VIP != "" {
		if _, err := parseIPv4(wa.VIP); err != nil {
			bad("vip", "%v", err)
		}
	}
	if wa.Name != "energyte" && (wa.Threshold != 0 || wa.Polls != 0) {
		bad("threshold", "only energyte takes threshold/polls")
	}
	if wa.Reconfigs < 0 {
		bad("reconfigs", "must be >= 0")
	}
	if wa.Polls < 0 {
		bad("polls", "must be >= 0")
	}
}

func (wh *WireHost) validate(path string, errs *[]error) {
	bad := func(field, format string, args ...any) {
		*errs = append(*errs, fieldErr(path+"."+field, format, args...))
	}
	if wh.Name == "" && !wh.Last {
		bad("name", "required unless last is true")
	}
	if wh.Name != "" && wh.Last {
		bad("last", "mutually exclusive with name")
	}
	if wh.Sends < 0 {
		bad("sends", "must be >= 0")
	}
	if wh.Sends > 0 || wh.ScaleSends {
		if wh.SendTo == "" && !wh.SendToLast {
			bad("send_to", "a client needs send_to or send_to_last")
		}
		if wh.SendTo != "" && wh.SendToLast {
			bad("send_to_last", "mutually exclusive with send_to")
		}
	} else {
		if wh.SendTo != "" || wh.SendToLast {
			bad("send_to", "only clients (sends > 0) take a destination")
		}
		if wh.Burst != 0 {
			bad("burst", "only clients (sends > 0) take a burst")
		}
	}
	if wh.Reply != "" {
		if _, ok := wireReplies[wh.Reply]; !ok {
			bad("reply", "unknown reply %q (known: %s)", wh.Reply, strings.Join(WireReplies(), ", "))
		}
	}
	if wh.ReplyBudget < 0 {
		bad("reply_budget", "must be >= 0")
	}
	if wh.ReplyBudget > 0 && wh.Reply == "" {
		bad("reply_budget", "reply_budget without a reply behaviour")
	}
}

// parseIPv4 parses a dotted quad into an openflow address without
// net.ParseIP's IPv6 acceptance.
func parseIPv4(s string) (openflow.IPAddr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("not a dotted-quad IPv4 address: %q", s)
	}
	var b [4]byte
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 || (len(p) > 1 && p[0] == '0') {
			return 0, fmt.Errorf("not a dotted-quad IPv4 address: %q", s)
		}
		b[i] = byte(v)
	}
	return openflow.MakeIPAddr(b[0], b[1], b[2], b[3]), nil
}

// Compile resolves every wire name against its registry and builds
// the equivalent declarative Spec, ready for Spec.Scenario() or
// RegisterSpec. Validation failures surface as *FieldError values.
func (ws *WireSpec) Compile() (Spec, error) {
	if err := ws.Validate(); err != nil {
		return Spec{}, err
	}
	sp := Spec{
		Name:                 ws.Name,
		Summary:              ws.Summary,
		App:                  ws.App.Name,
		ScaleName:            ws.ScaleName,
		DefaultScale:         ws.DefaultScale,
		MaxScale:             ws.Topology.maxScale(),
		ExpectedProperty:     ws.ExpectedProperty,
		StopAtFirstViolation: ws.StopAtFirstViolation,
		DisableSE:            ws.DisableSE,
		AtomicEnv:            ws.AtomicEnv,
		MaxDepth:             ws.MaxDepth,
		Topology:             ws.Topology.builder(),
		NewApp:               ws.App.builder(false),
		NewFixedApp:          ws.App.builder(true),
	}
	for _, name := range ws.Properties {
		sp.Properties = append(sp.Properties, wireProps[name])
	}
	for _, wh := range ws.Hosts {
		sp.Hosts = append(sp.Hosts, HostSpec{
			Name:        wh.Name,
			Last:        wh.Last,
			Sends:       wh.Sends,
			ScaleSends:  wh.ScaleSends,
			Burst:       wh.Burst,
			SendTo:      wh.SendTo,
			SendToLast:  wh.SendToLast,
			Reply:       wireReplies[wh.Reply],
			ReplyBudget: wh.ReplyBudget,
		})
	}
	return sp, nil
}

func (wt *WireTopology) builder() func(scale int) *topo.Topology {
	kind := *wt // copy: the Spec closure must not alias the caller's struct
	return func(scale int) *topo.Topology {
		or := func(v int) int {
			if v > 0 {
				return v
			}
			return scale
		}
		switch kind.Kind {
		case "single-switch":
			t, _, _ := topo.SingleSwitch()
			return t
		case "star":
			t, _ := topo.Star(or(kind.HostCount), kind.Names...)
			return t
		case "mesh":
			t, _ := topo.Mesh(or(kind.HostCount), kind.Names...)
			return t
		case "linear-hosts":
			per := kind.HostsPerSwitch
			if per <= 0 {
				per = 1
			}
			t, _ := topo.LinearHosts(or(kind.Switches), per)
			return t
		case "fat-tree":
			t, _ := topo.FatTree(or(kind.K))
			return t
		}
		panic("scenarios: unvalidated wire topology kind " + kind.Kind)
	}
}

func (wa *WireApp) builder(fixed bool) func(t *topo.Topology) controller.App {
	app := *wa
	if fixed {
		// The repaired column only exists when the submitted variant
		// is the buggy one; a submission already pinned to a fix level
		// has no separate fixed build.
		if app.Variant != "" && app.Variant != "buggy" {
			return nil
		}
		app.Variant = "fixed"
	}
	switch app.Name {
	case "pyswitch":
		v := pyswitch.Buggy
		if app.Variant == "fixed" {
			v = pyswitch.Fixed
		}
		return func(t *topo.Topology) controller.App { return pyswitch.New(v, t) }
	case "loadbalancer":
		level := map[string]loadbalancer.FixLevel{
			"": loadbalancer.Buggy, "buggy": loadbalancer.Buggy,
			"fix-iv": loadbalancer.FixIV, "fix-v": loadbalancer.FixV,
			"fix-vi": loadbalancer.FixVI, "fix-vii": loadbalancer.FixVII,
			"fixed": loadbalancer.Fixed,
		}[app.Variant]
		vip := openflow.MakeIPAddr(10, 0, 0, 100)
		if app.VIP != "" {
			vip, _ = parseIPv4(app.VIP) // validated
		}
		reconfigs := app.Reconfigs
		return func(t *topo.Topology) controller.App {
			return loadbalancer.New(level, t, vip, reconfigs)
		}
	case "energyte":
		level := map[string]energyte.FixLevel{
			"": energyte.Buggy, "buggy": energyte.Buggy,
			"fix-viii": energyte.FixVIII, "fix-ix": energyte.FixIX,
			"fix-x": energyte.FixX, "fix-xi": energyte.FixXI, "fixed": energyte.Fixed,
		}[app.Variant]
		threshold, polls := app.Threshold, app.Polls
		return func(t *topo.Topology) controller.App {
			return energyte.New(level, t, threshold, polls)
		}
	}
	panic("scenarios: unvalidated wire app " + app.Name)
}
