package sym

import (
	"fmt"
	"sort"
	"strings"

	"github.com/nice-go/nice/openflow"
)

// Branch is one recorded branch decision: the condition's expression and
// the direction the concrete execution took.
type Branch struct {
	Cond  Expr
	Taken bool
}

// Constraint returns the expression that must hold for an execution to
// take the same direction.
func (b Branch) Constraint() Expr {
	if b.Taken {
		return b.Cond
	}
	return Not{A: b.Cond}
}

// Trace records the path condition of one handler execution. A nil
// *Trace is valid and records nothing — the model checker passes nil
// during concrete transitions, so handlers pay nothing outside
// discover_packets.
type Trace struct {
	branches []Branch
}

// NewTrace returns an empty recording trace.
func NewTrace() *Trace { return &Trace{} }

// If evaluates a condition: it returns the concrete truth value and, if
// the condition involves symbolic input and the trace is recording,
// appends the branch to the path condition. This is the single
// instrumentation point handlers route packet-dependent branches
// through — the Go equivalent of the paper's AST branch instrumentation
// (§6, transformation iii).
func (t *Trace) If(b Bool) bool {
	if t != nil && b.E != nil {
		t.branches = append(t.branches, Branch{Cond: b.E, Taken: b.C})
	}
	return b.C
}

// Branches returns the recorded path condition in execution order.
func (t *Trace) Branches() []Branch {
	if t == nil {
		return nil
	}
	return t.branches
}

// PathKey is a canonical signature of the branch directions, used to
// recognize already-explored paths.
func (t *Trace) PathKey() string {
	var b strings.Builder
	for _, br := range t.branches {
		if br.Taken {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
		b.WriteString(ExprKey(br.Cond))
		b.WriteByte(';')
	}
	return b.String()
}

// LookupEth walks a MAC-keyed map concolically: each key comparison is a
// recorded branch, so the engine learns "dst == known-key" constraints
// exactly the way the paper's dictionary stub exposes them (§6,
// transformation iv). Keys are visited in sorted order for determinism.
func LookupEth[V any](t *Trace, m map[openflow.EthAddr]V, key Value) (V, bool) {
	keys := make([]openflow.EthAddr, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if t.If(key.EqConst(uint64(k))) {
			return m[k], true
		}
	}
	var zero V
	return zero, false
}

// LookupIP is LookupEth for IP-keyed maps.
func LookupIP[V any](t *Trace, m map[openflow.IPAddr]V, key Value) (V, bool) {
	keys := make([]openflow.IPAddr, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if t.If(key.EqConst(uint64(k))) {
			return m[k], true
		}
	}
	var zero V
	return zero, false
}

// LookupFlow walks a Flow-keyed map concolically, comparing each header
// field of the candidate keys. Used by applications that track
// per-connection state (the load balancer's transition table).
func LookupFlow[V any](t *Trace, m map[openflow.Flow]V, p *Packet) (V, bool) {
	// Keys are visited in order of their rendering; each is rendered
	// once up front, not twice per comparison inside the sort — and
	// not at all when there is nothing to order.
	type rendered struct {
		str string
		key openflow.Flow
	}
	keys := make([]rendered, 0, len(m))
	for k := range m {
		keys = append(keys, rendered{key: k})
	}
	if len(keys) > 1 {
		for i := range keys {
			keys[i].str = fmt.Sprint(keys[i].key)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].str < keys[j].str })
	}
	for _, r := range keys {
		k := r.key
		cond := p.Field(openflow.FieldEthSrc).EqConst(uint64(k.EthSrc)).
			And(p.Field(openflow.FieldEthDst).EqConst(uint64(k.EthDst))).
			And(p.Field(openflow.FieldIPSrc).EqConst(uint64(k.IPSrc))).
			And(p.Field(openflow.FieldIPDst).EqConst(uint64(k.IPDst))).
			And(p.Field(openflow.FieldTPSrc).EqConst(uint64(k.TPSrc))).
			And(p.Field(openflow.FieldTPDst).EqConst(uint64(k.TPDst)))
		if t.If(cond) {
			return m[k], true
		}
	}
	var zero V
	return zero, false
}
