package core

// The slice of the DPOR machinery external engines can reuse: sleep
// sets over the transition dependence relation, detached from the
// DPOR DFS's stack. Sleep sets alone never hide a reachable
// state — they prune re-executions of transitions whose effect a
// sibling interleaving already covers (Godefroid's classic result) —
// so a frontier-based engine can adopt them without the stack-shaped
// backtrack analysis dpor_dfs.go layers on top: a frontier item just
// carries the sleep set it was reached under, exactly like it carries
// its replayable parent path.
//
// internal/search's parallel engine is the consumer; the facade
// activates it through EngineOptions.Reduction.

// SleepEntry is one sleeping transition: its identity hash plus the
// footprint it had where it fell asleep. Entries are immutable values;
// sharing a slice across goroutines is safe once published.
type SleepEntry struct {
	key uint64
	fp  footprint
}

// Key reports the entry's transition identity hash — the unit sleep
// signatures are built from.
func (e SleepEntry) Key() uint64 { return e.key }

// SleepKeySet reports the identity hashes of a sleep set, for storing
// as a seen-set sleep signature.
func SleepKeySet(sleep []SleepEntry) []uint64 {
	if len(sleep) == 0 {
		return nil
	}
	keys := make([]uint64, len(sleep))
	for i, e := range sleep {
		keys[i] = e.key
	}
	return keys
}

// SleepReducer computes transition footprints and identity keys for
// sleep-set reduction. One reducer serves a whole search; its component
// space is immutable after construction, so concurrent use is safe as
// long as each worker brings its own SleepScratch.
type SleepReducer struct {
	sp *componentSpace
}

// NewSleepReducer derives the component space from the search's initial
// state (populations are fixed for a run, so the root determines it).
func NewSleepReducer(root *System) *SleepReducer {
	return &SleepReducer{sp: newComponentSpace(root)}
}

// SleepScratch is one worker's reusable expansion state: footprints and
// identity keys for the enabled set most recently prepared.
type SleepScratch struct {
	fps    []footprint
	keys   []uint64
	hostSw []int
}

// Prepare computes footprints and keys for one state's enabled set. The
// results stay valid until the next Prepare on the same scratch.
func (r *SleepReducer) Prepare(sys *System, enabled []Transition, sc *SleepScratch) {
	sc.fps, sc.hostSw = r.sp.footprintsInto(sys, enabled, sc.fps[:0], sc.hostSw)
	sc.keys = sc.keys[:0]
	for i := range enabled {
		sc.keys = append(sc.keys, dporKeyHash(sys, &enabled[i]))
	}
}

// Key reports the identity hash of enabled[i] as of the last Prepare.
func (sc *SleepScratch) Key(i int) uint64 { return sc.keys[i] }

// Asleep reports whether enabled[i] is covered by the sleep set and
// must not be executed from this state.
func (sc *SleepScratch) Asleep(sleep []SleepEntry, i int) bool {
	for _, e := range sleep {
		if e.key == sc.keys[i] {
			return true
		}
	}
	return false
}

// ChildSleep builds the sleep set for the child reached by executing
// enabled[i]: the incoming entries plus every sibling executed before
// it (in execution order), keeping exactly those independent of the
// executed transition. The result is freshly allocated — children
// outlive the expansion — and nil when empty.
func (sc *SleepScratch) ChildSleep(sleep []SleepEntry, executed []int, i int) []SleepEntry {
	fp := sc.fps[i]
	var out []SleepEntry
	for _, e := range sleep {
		if !Dependent(e.fp, fp) {
			out = append(out, e)
		}
	}
	for _, j := range executed {
		if !Dependent(sc.fps[j], fp) {
			out = append(out, SleepEntry{key: sc.keys[j], fp: sc.fps[j]})
		}
	}
	return out
}
