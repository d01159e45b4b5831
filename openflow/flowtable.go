package openflow

import (
	"sort"
	"strings"

	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/internal/cow"
)

// Permanent marks a timeout that never fires (the PERMANENT constant of
// the NOX API used in the paper's Figure 3).
const Permanent = 0

// Rule is one flow-table entry: a pattern, a priority, an action list,
// timeouts and traffic counters (§1.1).
type Rule struct {
	Priority int
	Match    Match
	Actions  []Action
	// IdleTimeout (soft timeout) and HardTimeout are in model ticks;
	// Permanent (0) disables them. Timer expiry is an optional
	// environment transition — see docs/ARCHITECTURE.md, "Deviations
	// from the paper".
	IdleTimeout int
	HardTimeout int

	// Counters (bytes approximated as packets × 100, enough for the
	// stats handlers to branch on).
	PacketCount uint64
	ByteCount   uint64
	// Age counts elapsed expiry ticks; IdleAge counts ticks since the
	// rule last matched a packet.
	Age     int
	IdleAge int
}

// Key renders the rule canonically, excluding counters (counters are
// bookkeeping, not semantics; see FlowTable.RenderCanonicalKey).
func (r Rule) Key() string {
	var buf [256]byte
	return string(r.appendKey(buf[:0]))
}

func (r Rule) String() string { return r.Key() }

// FlowTable stores a switch's rules. Rules are kept in insertion order;
// lookups use priority with a canonical tie-break so behaviour is
// insertion-order independent, which is what makes the canonical hashed
// representation (§2.2.2 "Merging equivalent flow tables") semantically
// safe: two tables holding the same rule set behave identically no matter
// the order rules arrived in.
//
// Tables participate in the copy-on-write forking protocol
// (internal/cow): Fork shares the rule storage with the receiver, a
// cow.Slice, and every mutating method owns it first. Installed rules'
// Action slices are treated as immutable — nothing in the model
// rewrites an action list in place — so rule-element copies share them.
type FlowTable struct {
	rules cow.Slice[Rule]
	// sum is the canonical-mode digest of the rule set: the wrapping
	// sum of every rule's finalised counter-free hash, adjusted by
	// Install, Delete and Tick as rules come and go. Addition commutes,
	// so tables holding the same rules in any arrival order agree
	// without a sort, and a flow_mod costs O(1). Forks copy it with the
	// struct; only an owned table ever writes it.
	sum uint64
}

// NewFlowTable returns an empty table.
func NewFlowTable() *FlowTable { return &FlowTable{} }

// Fork returns a copy-on-write fork: a new table borrowing the
// receiver's rule storage. The receiver must be frozen (not mutated)
// while the fork may still read it; the fork copies before its own
// first mutation.
func (t *FlowTable) Fork() *FlowTable {
	c := *t
	c.rules.Borrow()
	return &c
}

// Len returns the number of installed rules.
func (t *FlowTable) Len() int { return t.rules.Len() }

// Rules returns the rules in insertion order. The returned slice aliases
// the table; callers must not mutate it.
func (t *FlowTable) Rules() []Rule { return t.rules.View() }

// Install applies FlowAdd semantics: a rule with an identical match and
// priority is cleared and the new rule appended (actions and timeouts
// refreshed, counters reset). The list order therefore reflects arrival
// order — which is exactly the semantically irrelevant detail the
// canonical representation neutralizes and the NO-SWITCH-REDUCTION
// baseline of Table 1 hashes verbatim.
// Install stores r as given and takes its action list with it: the
// caller must not write that slice afterwards. In the model the caller
// is a switch applying an enqueued flow_mod, which owns its list from
// the moment controller.Context.InstallRule copied it out of app
// memory; once installed, actions are immutable, which lets table forks
// and rule-element copies share them.
func (t *FlowTable) Install(r Rule) {
	t.deleteWhere(func(old *Rule) bool {
		return old.Priority == r.Priority && old.Match.Equal(r.Match)
	})
	t.rules.Append(r)
	t.sum += r.digest(false)
}

// Delete applies loose-delete semantics: every rule whose match is
// subsumed by pattern is removed, regardless of priority. It returns the
// number of rules removed.
func (t *FlowTable) Delete(pattern Match) int {
	return t.deleteWhere(func(r *Rule) bool { return pattern.Subsumes(r.Match) })
}

// DeleteStrict removes only rules with exactly this match and priority.
func (t *FlowTable) DeleteStrict(pattern Match, priority int) int {
	return t.deleteWhere(func(r *Rule) bool {
		return r.Priority == priority && r.Match.Equal(pattern)
	})
}

// deleteWhere removes the rules pred selects, reading each in place; a
// kept rule moves only to close a gap.
func (t *FlowTable) deleteWhere(pred func(*Rule) bool) int {
	rules := t.rules.Own()
	removed := 0
	for i := range rules {
		r := &rules[i]
		if pred(r) {
			removed++
			t.sum -= r.digest(false)
			continue
		}
		if removed > 0 {
			rules[i-removed] = *r
		}
	}
	t.rules.Truncate(len(rules) - removed)
	return removed
}

// Lookup returns the highest-priority rule matching the header on inPort
// ("the switch selects the highest-priority matching rule", §1.1). Ties
// between overlapping same-priority rules — behaviour OpenFlow leaves
// undefined — resolve by canonical match key, so lookup is deterministic
// and insertion-order independent. The returned index addresses
// t.Rules(); ok is false on a table miss.
func (t *FlowTable) Lookup(h Header, inPort PortID) (idx int, ok bool) {
	rules := t.rules.View()
	best := -1
	for i := range rules {
		r := &rules[i]
		if !r.Match.Matches(h, inPort) {
			continue
		}
		if best == -1 || ruleLess(r, &rules[best]) {
			best = i
		}
	}
	if best == -1 {
		return 0, false
	}
	return best, true
}

// ruleLess orders rules for lookup and canonicalization: higher priority
// first, then canonical match key, then action key. It reads both rules
// in place.
func ruleLess(a, b *Rule) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	ak, bk := a.Match.Key(), b.Match.Key()
	if ak != bk {
		return ak < bk
	}
	return ActionsKey(a.Actions) < ActionsKey(b.Actions)
}

// Hit updates rule idx's counters for one matched packet.
func (t *FlowTable) Hit(idx int) {
	r := &t.rules.Own()[idx]
	r.PacketCount++
	r.ByteCount += 100
	r.IdleAge = 0
}

// Tick advances rule ages by one expiry tick and removes rules whose idle
// or hard timeout has elapsed, returning the expired rules. This backs
// the optional timer-expiry environment transition.
func (t *FlowTable) Tick() []Rule {
	rules := t.rules.Own()
	var expired []Rule
	kept := rules[:0]
	for _, r := range rules {
		r.Age++
		r.IdleAge++
		if (r.HardTimeout != Permanent && r.Age >= r.HardTimeout) ||
			(r.IdleTimeout != Permanent && r.IdleAge >= r.IdleTimeout) {
			expired = append(expired, r)
			t.sum -= r.digest(false)
			continue
		}
		kept = append(kept, r)
	}
	t.rules.Truncate(len(kept))
	return expired
}

// Digest is the table's structural hash — what Switch.KeyHash64 folds
// in. The default form (canonical, counter-free) is the maintained sum
// and costs O(1); the ablation forms fold over the rules on demand.
func (t *FlowTable) Digest(canonical, includeCounters bool) uint64 {
	if canonical && !includeCounters {
		return canon.NewMix(uint64(t.rules.Len())).Word(t.sum).Sum()
	}
	return t.FreshDigest(canonical, includeCounters)
}

// FreshDigest recomputes Digest from the rules alone, ignoring the
// maintained sum (the from-scratch side of VerifyCaches). Canonical
// mode sums the per-rule digests — the set view of the table; insertion
// order chains them, so equivalent tables hash apart exactly as the
// NO-SWITCH-REDUCTION baseline wants.
func (t *FlowTable) FreshDigest(canonical, includeCounters bool) uint64 {
	rules := t.rules.View()
	h := canon.NewMix(uint64(len(rules)))
	var sum uint64
	for i := range rules {
		if d := rules[i].digest(includeCounters); canonical {
			sum += d
		} else {
			h = h.Word(d)
		}
	}
	return h.Word(sum).Sum()
}

// RenderCanonicalKey is the canonical string representation of the
// table — the oracle-side twin of Digest(true, ·): the sorted multiset
// of rule keys. Two tables holding the same rules in different
// insertion orders produce identical keys — the state-space reduction
// measured by Table 1 of the paper. If includeCounters is true,
// per-rule counters are appended.
func (t *FlowTable) RenderCanonicalKey(includeCounters bool) string {
	keys := t.ruleStateKeys(includeCounters)
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

// RenderInsertionOrderKey serializes rules in raw insertion order.
// Using it in place of RenderCanonicalKey reproduces the paper's
// NO-SWITCH-REDUCTION baseline, where semantically equivalent tables
// hash differently.
func (t *FlowTable) RenderInsertionOrderKey(includeCounters bool) string {
	return strings.Join(t.ruleStateKeys(includeCounters), "|")
}

func (t *FlowTable) ruleStateKeys(includeCounters bool) []string {
	keys := make([]string, t.rules.Len())
	for i, r := range t.rules.View() {
		var buf [288]byte
		keys[i] = string(r.appendStateKey(buf[:0], includeCounters))
	}
	return keys
}

func (t *FlowTable) String() string {
	if t.rules.Len() == 0 {
		return "<empty>"
	}
	keys := make([]string, t.rules.Len())
	for i, r := range t.rules.View() {
		keys[i] = r.Key()
	}
	return strings.Join(keys, "\n")
}
