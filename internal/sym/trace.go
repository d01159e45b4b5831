package sym

import (
	"bytes"
	"slices"

	"github.com/nice-go/nice/internal/canon"
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

// path digests the branch directions and conditions in order: the
// explorer's identity of an execution path.
func (t *Trace) path() canon.Digest {
	h := canon.NewMix128()
	for _, br := range t.branches {
		h = mixExpr(h.Word(b01(br.Taken)), br.Cond)
	}
	return h.Sum()
}

// LookupEth walks a MAC-keyed map concolically: each key comparison is a
// recorded branch, so the engine learns "dst == known-key" constraints
// exactly the way the paper's dictionary stub exposes them (§6,
// transformation iv). Keys are visited in sorted order for determinism.
func LookupEth[V any](t *Trace, m map[openflow.EthAddr]V, key Value) (V, bool) {
	return lookupSorted(t, m, key)
}

// LookupIP is LookupEth for IP-keyed maps.
func LookupIP[V any](t *Trace, m map[openflow.IPAddr]V, key Value) (V, bool) {
	return lookupSorted(t, m, key)
}

// lookupSorted is LookupEth and LookupIP: the keys are collected into a
// stack array (a map over 16 keys spills to the heap) and sorted.
func lookupSorted[K openflow.EthAddr | openflow.IPAddr, V any](t *Trace, m map[K]V, key Value) (V, bool) {
	var scratch [16]K
	keys := scratch[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if t.If(key.EqConst(uint64(k))) {
			return m[k], true
		}
	}
	var zero V
	return zero, false
}

// flowStringMax is the length of the longest Flow.String rendering.
const flowStringMax = 82

// LookupFlow walks a Flow-keyed map concolically, comparing each header
// field of the candidate keys. Used by applications that track
// per-connection state (the load balancer's transition table). Keys are
// visited in order of their Flow.String renderings; two keys that
// differ only in EthType or IPProto, which the rendering and the
// comparison leave out, are visited in Flow.Less order.
func LookupFlow[V any](t *Trace, m map[openflow.Flow]V, p *Packet) (V, bool) {
	// Each key is rendered once, into one stack buffer (a map over 8
	// keys spills to the heap), and not at all when there is nothing
	// to order.
	type rendered struct {
		key      openflow.Flow
		from, to int
	}
	var keyScratch [8]rendered
	var strScratch [8 * flowStringMax]byte
	keys, strs := keyScratch[:0], strScratch[:0]
	for k := range m {
		from := len(strs)
		if len(m) > 1 {
			strs = k.AppendString(strs)
		}
		keys = append(keys, rendered{k, from, len(strs)})
	}
	slices.SortFunc(keys, func(a, b rendered) int {
		if c := bytes.Compare(strs[a.from:a.to], strs[b.from:b.to]); c != 0 {
			return c
		}
		switch {
		case a.key.Less(b.key):
			return -1
		case b.key.Less(a.key):
			return 1
		}
		return 0
	})
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
