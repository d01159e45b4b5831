package core

import (
	"context"
	"math/bits"
	"slices"

	"github.com/nice-go/nice/internal/canon"
)

// Stateful Flanagan–Godefroid DPOR for the sequential DFS: sleep
// sets prune redundant transitions, dynamically-computed backtrack sets
// prune whole subtrees, and per-state bookkeeping (dporNode) adapts both
// to the search's hash-matched state storage. The exploration order
// and state counting mirror the unreduced search (internal/search's
// expansion step), and the step itself — apply, check, record, a leaf's
// quiescence and depth bound — is the session's (Session.Step and
// Leaf), on forks lent and reclaimed as the expansion step's are: DPOR
// changes only WHICH enabled transitions get executed, never what
// happens when one does.
//
// Two stateful-search adaptations on top of the classic stack-based
// algorithm:
//
//   - Sleep signatures (Godefroid): a state stores the sleep set it was
//     explored under. Reaching it again with a smaller sleep set means
//     some transitions slept then are awake now; only that difference is
//     re-expanded, and the state then names the intersection as its
//     signature.
//
//   - Subtree summaries: a fully-explored state stores a summary of the
//     transitions executed anywhere below it (a few exact (key,
//     footprint) pairs plus a union residual). Revisiting the state
//     hash-prunes the subtree, so the summary stands in for the hidden
//     transitions in race detection: each exact pair gets the standard
//     last-dependent-frame backtrack insertion; the residual — a union
//     of unlike footprints for which a single insertion point would be
//     unsound — inserts at every dependent frame. States still being
//     explored (cycles) and depth-truncated states use the
//     all-conflicting global footprint as their summary.
type dporNode struct {
	// sum names the stored summary of every transition executed in the
	// subtree below this state. It is noRun while the state is on the
	// current DFS path (or mid re-expansion): its summary is not yet
	// trustworthy.
	sum uint32
	// sleep names the stored sleep signature: transition keys asleep
	// when the state was (last) expanded. A re-expansion names a new,
	// smaller signature; stored runs never change.
	sleep uint32
}

// sleepEntry is one sleeping transition: its identity hash plus the
// footprint it had where it fell asleep. Entries are immutable values.
type sleepEntry struct {
	key uint64
	fp  footprint
}

// slab is an append-only arena of pointer-free records, where a runStore
// keeps its runs. It is chunked: a stored run never moves (views stay
// valid across later puts) and growth never copies.
type slab[T any] struct{ chunks [][]T }

const slabChunkBits = 12

// put copies run into the slab and returns its offset.
func (s *slab[T]) put(run []T) uint32 {
	n := len(s.chunks)
	if n == 0 || len(s.chunks[n-1])+len(run) > cap(s.chunks[n-1]) {
		s.chunks = append(s.chunks, make([]T, 0, max(1<<slabChunkBits, len(run))))
		n++
	}
	c := &s.chunks[n-1]
	off := uint32(n-1)<<slabChunkBits | uint32(len(*c))
	*c = append(*c, run...)
	return off
}

// view returns the n records stored at off, clipped to capacity n so an
// append through the view can never reach a neighbour.
func (s *slab[T]) view(off uint32, n int) []T {
	if n == 0 {
		return nil
	}
	i := int(off & (1<<slabChunkBits - 1))
	return s.chunks[off>>slabChunkBits][i : i+n : i+n]
}

// runStore keeps each distinct run of records once and names it by a
// dense uint32 id, so states whose summaries (or sleep signatures) are
// equal share one copy, and equal ids mean equal runs. Runs are
// immutable once stored. heads is a bucket array indexed by run hash;
// the runs of one bucket are chained through next and compared in full,
// so a collision costs a comparison, never a wrong share. No part of it
// holds a pointer per run for the collector to trace.
type runStore[T comparable] struct {
	hash  func([]T) uint64
	heads []uint32
	runs  []storedRun
	data  slab[T]
}

type storedRun struct{ off, n, next uint32 }

// noRun is the id no run ever gets: the end of a bucket chain, and a
// dporNode's summary while the state is in progress.
const noRun = ^uint32(0)

// put returns the id of run's content, storing a copy if it is new.
func (s *runStore[T]) put(run []T) uint32 {
	if len(s.runs) >= len(s.heads) {
		s.rehash(max(64, 2*len(s.heads)))
	}
	b := s.hash(run) & uint64(len(s.heads)-1)
	for id := s.heads[b]; id != noRun; id = s.runs[id].next {
		if slices.Equal(s.get(id), run) {
			return id
		}
	}
	id := uint32(len(s.runs))
	s.runs = append(s.runs, storedRun{off: s.data.put(run), n: uint32(len(run)), next: s.heads[b]})
	s.heads[b] = id
	return id
}

// rehash re-chains every stored run into n buckets (a power of two),
// keeping the chains about one run long.
func (s *runStore[T]) rehash(n int) {
	s.heads = make([]uint32, n)
	for b := range s.heads {
		s.heads[b] = noRun
	}
	for id := range s.runs {
		b := s.hash(s.get(uint32(id))) & uint64(n-1)
		s.runs[id].next, s.heads[b] = s.heads[b], uint32(id)
	}
}

// get returns the run stored as id, clipped to its length.
func (s *runStore[T]) get(id uint32) []T {
	r := s.runs[id]
	return s.data.view(r.off, int(r.n))
}

// hashSumRun and hashKeyRun are the summary and sleep-signature stores'
// run hashes.
func hashSumRun(run []sumEntry) uint64 {
	m := canon.NewMix(uint64(len(run)))
	for _, e := range run {
		m = m.Word(e.key).Word(uint64(e.fp)<<32 | uint64(e.anc))
	}
	return m.Sum()
}

func hashKeyRun(run []uint64) uint64 {
	m := canon.NewMix(uint64(len(run)))
	for _, k := range run {
		m = m.Word(k)
	}
	return m.Sum()
}

// fpTable interns footprints for one search. Summaries name footprints
// by id — id 0 is the empty footprint — so a sumEntry is 16 bytes
// instead of 80 and equal ids mean equal footprints.
type fpTable struct {
	ids map[footprint]uint32
	fps []footprint
}

func (t *fpTable) intern(fp footprint) uint32 {
	id, ok := t.ids[fp]
	if !ok {
		id = uint32(len(t.fps))
		t.ids[fp] = id
		t.fps = append(t.fps, fp)
	}
	return id
}

// union interns the union of two interned footprints.
func (t *fpTable) union(a, b uint32) uint32 {
	if a == b || b == 0 {
		return a
	}
	if a == 0 {
		return b
	}
	fp := t.fps[a]
	fp.union(t.fps[b])
	return t.intern(fp)
}

// sumEntry is one summarized hidden transition: its identity, its
// footprint (an fpTable id) and anc, the union footprint of its
// subtree-local happens-before ancestors (transitions below the
// summarized state that precede it in the dependence order), also an
// id. An empty exact anc certifies the transition's whole causal past
// is visible on the current path, which is what the causal-skip proof
// in dporRaceInsert needs; a non-empty exact anc still yields certified
// chain-representative candidates (path frames coupling into the hidden
// ancestry). The ancInexact bit is set when deduplication unions unlike
// ancestries — such an entry keeps only the certificate-free insertions
// (its own key, or everything).
type sumEntry struct {
	key uint64
	fp  uint32
	anc uint32
}

const ancInexact = 1 << 31

// dporSummary is a bounded subtree summary: up to dporSummaryCap exact
// entries — precise race insertion — and a union residual (a footprint
// id, 0 = none) for the overflow — conservative insertion at every
// dependent frame. Entries are deduplicated by (key, footprint);
// occurrences of one key with different footprints stay separate
// (merging footprints would move the deepest-race determination, which
// is unsound). A dporSummary is a transient view: exact is backed by a
// frame's sumBuf while an expansion builds it and by the summary store
// once stored, never by memory of its own.
type dporSummary struct {
	exact    []sumEntry
	residual uint32
}

const dporSummaryCap = 24

func (s *dporSummary) add(t *fpTable, e sumEntry) {
	for i := range s.exact {
		have := &s.exact[i]
		if have.key == e.key && have.fp == e.fp {
			if (have.anc^e.anc)&^ancInexact != 0 {
				have.anc = t.union(have.anc&^ancInexact, e.anc&^ancInexact) | ancInexact
			} else {
				have.anc |= e.anc & ancInexact
			}
			return
		}
	}
	if len(s.exact) < dporSummaryCap {
		s.exact = append(s.exact, e)
		return
	}
	s.residual = t.union(s.residual, e.fp)
}

// mergeFolded hoists a child-subtree summary one level: the transition
// that produced the child (footprint id fpT) becomes subtree-local to
// the parent, so it joins the recorded ancestry of every entry it
// happens-before (it is dependent with the entry or with one of the
// entry's own ancestors). Entries are copied; o is left untouched (it
// may be a stored summary). With fpT = 0, the empty footprint, nothing
// is folded: a plain merge of two summaries of the same state.
func (s *dporSummary) mergeFolded(t *fpTable, o dporSummary, fpT uint32) {
	fp := t.fps[fpT]
	for _, e := range o.exact {
		anc := e.anc &^ ancInexact
		if dependent(fp, t.fps[e.fp]) || dependent(fp, t.fps[anc]) {
			e.anc = t.union(anc, fpT) | e.anc&ancInexact
		}
		s.add(t, e)
	}
	s.residual = t.union(s.residual, o.residual)
}

func (f footprint) empty() bool {
	return f.r == compSet{} && f.w == compSet{}
}

// idxSet is a reusable bitset over enabled-transition indices.
type idxSet struct{ w []uint64 }

func (s *idxSet) reset(n int) {
	need := (n + 63) / 64
	if cap(s.w) < need {
		s.w = make([]uint64, need)
		return
	}
	s.w = s.w[:need]
	for i := range s.w {
		s.w[i] = 0
	}
}

func (s *idxSet) get(i int) bool { return s.w[i>>6]&(1<<uint(i&63)) != 0 }

// set sets bit i, reporting whether it was newly set.
func (s *idxSet) set(i int) bool {
	word, bit := &s.w[i>>6], uint64(1)<<uint(i&63)
	if *word&bit != 0 {
		return false
	}
	*word |= bit
	return true
}

// unionWith ors o into s; o must be no longer than s.
func (s *idxSet) unionWith(o *idxSet) {
	for i := range o.w {
		s.w[i] |= o.w[i]
	}
}

// setAll sets bits [0,n), reporting whether any was newly set.
func (s *idxSet) setAll(n int) bool {
	changed := false
	for i := range s.w {
		full := ^uint64(0)
		if rem := n - i*64; rem < 64 {
			full = 1<<uint(rem) - 1
		}
		if s.w[i] != full {
			changed = true
			s.w[i] = full
		}
	}
	return changed
}

// dporFrame is one DFS stack frame's reduction state; frames are
// preallocated per depth so pointers stay stable across recursion.
type dporFrame struct {
	enabled []Transition
	fps     []footprint
	keys    []uint64
	// asleep marks transitions skipped at this state (sleeping, or
	// covered by a previous expansion during a re-expansion).
	asleep idxSet
	// backtrack is the persistent-set-in-progress: indices to explore.
	// Starts with one seed and grows by race-driven insertion — from
	// descendants of this frame, and from revisited states' summaries.
	backtrack idxSet
	done      idxSet
	// working is the child-sleep source: incoming sleep entries plus
	// every sibling already explored from this frame.
	working    []sleepEntry
	childSleep []sleepEntry
	// execIdx/execFp/execKey identify the transition currently being
	// executed from this frame (-1 between executions); race insertion
	// scans executing frames only.
	execIdx int
	execFp  footprint
	execKey uint64
	// hb is the happens-before ancestry of the executing transition:
	// frame depths whose executed transition precedes it in the
	// dependence order (transitively closed, includes this frame). It
	// names only depths up to the frame's own and is sized to match.
	hb idxSet
	// sumBuf backs the summary an expansion at this frame is building.
	// It must never escape the frame: dporVisit hands out stored copies.
	sumBuf [dporSummaryCap]sumEntry
}

// RunDPOR runs the sequential depth-first search under dynamic
// partial-order reduction: the persistent-set DPOR DFS, which search.DFS
// runs for ReductionDPOR. It honors context cancellation (and
// deadlines) and the EngineOptions budgets, streams violations and
// progress to the options' Observer, and on abort returns a partial
// report whose traces still replay deterministically.
func RunDPOR(ctx context.Context, cfg *Config, eo EngineOptions) *Report {
	return (&dporDFS{cfg: cfg}).run(ctx, eo)
}

// dporDFS is one DPOR DFS run: its session and the reduction's state.
type dporDFS struct {
	cfg *Config
	// s is the search in flight: counters, budgets, stop control,
	// violations and streaming.
	s *Session

	// trace is the path stack, pushed and popped per executed
	// transition: violations pass it by reference and the session copies
	// only a trace it keeps. events is the reused per-transition event
	// batch, dead once the property checks ran.
	trace        []Transition
	events       []Event
	space        *componentSpace
	dporExplored map[canon.Digest]dporNode
	sums         runStore[sumEntry]
	sleeps       runStore[uint64]
	fpt          fpTable
	globalFp     uint32
	dporTel      *dporTelemetry
	dporFrames   []dporFrame
	frameTop     int
	hostSwBuf    []int
	keyBuf       []uint64
	hbScratch    idxSet
	// runBuf builds the run storeSummary stores — a summary's entries,
	// then its residual entry; a re-expansion merges its summary in
	// place there first.
	runBuf [dporSummaryCap + 1]sumEntry
}

// run opens the session, explores from its root and ends it.
func (c *dporDFS) run(ctx context.Context, eo EngineOptions) *Report {
	c.s = Begin(ctx, "dfs", c.cfg, eo, nil)
	// The search runs on this goroutine, so a panicking App or Property
	// unwinds through here with its own stack; only the session's
	// goroutines need stopping on the way out.
	defer c.s.Close()

	root := c.s.NewSystem()
	c.space = newComponentSpace(root)
	c.dporExplored = make(map[canon.Digest]dporNode)
	c.sums, c.sleeps = runStore[sumEntry]{hash: hashSumRun}, runStore[uint64]{hash: hashKeyRun}
	c.fpt = fpTable{ids: map[footprint]uint32{{}: 0}, fps: []footprint{{}}}
	c.globalFp = c.fpt.intern(c.space.global)
	c.dporTel = newDporTelemetry(eo.Telemetry)
	c.dporFrames = make([]dporFrame, c.cfg.maxDepth()+2)
	c.dporVisit(root, nil)
	return c.s.End(ctx)
}

func (c *dporDFS) globalSummary() dporSummary {
	return dporSummary{residual: c.globalFp}
}

// storeSummary records sum as the state's finished summary and returns
// the stored copy. The run stored is the exact entries followed by one
// entry carrying the residual as its footprint.
func (c *dporDFS) storeSummary(h canon.Digest, node dporNode, sum dporSummary) dporSummary {
	run := append(c.runBuf[:0], sum.exact...)
	node.sum = c.sums.put(append(run, sumEntry{fp: sum.residual}))
	c.dporExplored[h] = node
	return c.storedSummary(node)
}

func (c *dporDFS) storedSummary(node dporNode) dporSummary {
	run := c.sums.get(node.sum)
	n := len(run) - 1
	return dporSummary{exact: run[:n:n], residual: run[n].fp}
}

// shrinkSignature names the intersection of stored signature id with
// the current sleep set. It is stored as a run of its own: other states
// may share the old one.
func (c *dporDFS) shrinkSignature(id uint32, sleep []sleepEntry) uint32 {
	c.keyBuf = retainKeys(c.keyBuf[:0], c.sleeps.get(id), sleep)
	return c.sleeps.put(c.keyBuf)
}

// dporVisit explores sys (reached at depth len(trace) under the given
// sleep set) and returns the subtree summary for race detection in the
// caller's ancestors.
func (c *dporDFS) dporVisit(sys *System, sleep []sleepEntry) dporSummary {
	if c.s.Stopped() {
		return c.globalSummary()
	}
	h := sys.Fingerprint()
	depth := len(c.trace)

	if node, ok := c.dporExplored[h]; ok {
		c.s.Revisits.Add(1)
		if node.sum == noRun {
			// A cycle back onto the current path: the subtree below is
			// this very exploration, summary unknown — go conservative.
			g := c.globalSummary()
			c.dporInsertSummary(g)
			return g
		}
		// The hash match prunes the stored subtree; its summary stands
		// in for the hidden transitions in race detection.
		sum := c.storedSummary(node)
		c.dporInsertSummary(sum)
		stored := c.sleeps.get(node.sleep)
		diff := slippedKeys(stored, sleep)
		if len(diff) == 0 {
			return sum
		}
		if depth >= c.cfg.maxDepth() {
			// Too deep to re-expand the difference; report it as hidden.
			sum.residual = c.globalFp
			return sum
		}
		// Transitions asleep at the previous expansion are awake now:
		// re-expand exactly those (everything else is covered), then
		// shrink the signature to what is still jointly asleep.
		c.dporTel.Reexpansion()
		c.dporExplored[h] = dporNode{sum: noRun, sleep: node.sleep}
		f := &c.dporFrames[depth]
		f.enabled = sys.EnabledInto(f.enabled)
		sub := c.dporExpand(sys, depth, sleep, diff)
		merged := dporSummary{exact: c.runBuf[:copy(c.runBuf[:], sum.exact)], residual: sum.residual}
		merged.mergeFolded(&c.fpt, sub, 0)
		node.sleep = c.shrinkSignature(node.sleep, sleep)
		return c.storeSummary(h, node, merged)
	}

	c.keyBuf = c.keyBuf[:0]
	for _, e := range sleep {
		c.keyBuf = append(c.keyBuf, e.key)
	}
	node := dporNode{sum: noRun, sleep: c.sleeps.put(c.keyBuf)}
	c.dporExplored[h] = node
	c.s.Admit(depth)

	// A leaf is the session's, as in the unreduced search: it judges the
	// full enabled set, before any reduction. A dead end hides nothing
	// unless the search stopped there; a state at the depth bound hides
	// its whole subtree.
	f := &c.dporFrames[depth]
	f.enabled = sys.EnabledInto(f.enabled)
	if c.s.Leaf(sys, f.enabled, c.trace) {
		if len(f.enabled) == 0 && !c.s.Stopped() {
			return c.storeSummary(h, node, dporSummary{})
		}
		return c.storeSummary(h, node, c.globalSummary())
	}
	return c.storeSummary(h, node, c.dporExpand(sys, depth, sleep, nil))
}

// dporExpand runs the backtrack-set exploration loop at one state over
// its enabled set, which the caller put in the depth's frame. With only == nil this is a first expansion:
// transitions in sleep start asleep and the first awake transition seeds
// the backtrack set. With only != nil it is a re-expansion: exactly the
// keys in only are awake and all of them are seeded; the rest were
// covered by the previous expansion of this state. The returned summary
// lives in the frame's sumBuf: valid until the next expansion at this
// depth, and not to be stored.
func (c *dporDFS) dporExpand(sys *System, depth int, sleep []sleepEntry, only []uint64) dporSummary {
	f := &c.dporFrames[depth]
	enabled := f.enabled
	n := len(enabled)
	c.frameTop = depth + 1

	f.fps, c.hostSwBuf = c.space.footprintsInto(sys, enabled, f.fps[:0], c.hostSwBuf)
	f.keys = f.keys[:0]
	for i := range enabled {
		f.keys = append(f.keys, dporKeyHash(sys, &enabled[i]))
	}
	f.asleep.reset(n)
	f.backtrack.reset(n)
	f.done.reset(n)
	f.execIdx = -1

	f.working = append(f.working[:0], sleep...)
	sum := dporSummary{exact: f.sumBuf[:0]}
	if only == nil {
		seed := -1
		for i := 0; i < n; i++ {
			if containsKey(sleep, f.keys[i]) {
				f.asleep.set(i)
			} else if seed < 0 {
				seed = i
			}
		}
		if seed < 0 {
			// Everything enabled is asleep: all continuations from here
			// are covered elsewhere.
			for i := 0; i < n; i++ {
				c.dporTel.SleepHit()
			}
			c.frameTop = depth
			return sum
		}
		f.backtrack.set(seed)
	} else {
		// Re-expansion: wake exactly the slipped keys. Transitions in the
		// current sleep set stay covered; everything else previously
		// explored (or pruned) from this state starts un-seeded but
		// remains insertable — the persistent-set closure below wakes it
		// if a newly-explored transition turns out to be dependent with
		// it. None of them are valid sleep entries for the new children
		// (the previous expansion may have pruned rather than executed
		// them), so they do not join working.
		for i := 0; i < n; i++ {
			if keyIndex(only, f.keys[i]) >= 0 {
				f.backtrack.set(i)
			} else if containsKey(sleep, f.keys[i]) {
				f.asleep.set(i)
			}
		}
	}

	for {
		if c.s.Stopped() {
			c.frameTop = depth
			return c.globalSummary()
		}
		i := nextIndex(&f.backtrack, &f.done)
		if i < 0 {
			break
		}
		f.done.set(i)
		if f.asleep.get(i) {
			continue
		}
		t, fp, key := enabled[i], f.fps[i], f.keys[i]

		// Persistent-set closure at this state: a set containing t must
		// contain every co-enabled transition dependent with it (the
		// one-step sequence from outside the set would interact with t).
		// Classic FG gets this lazily from per-process next-transition
		// race analysis, which has no analogue here — a transition that
		// t disables (say, a sibling send variant consuming the same
		// budget) never executes below t and would otherwise never be
		// inserted. Sleeping transitions stay out: they are covered by
		// an earlier branch.
		for j := 0; j < n; j++ {
			if j != i && !f.asleep.get(j) && dependent(fp, f.fps[j]) {
				if f.backtrack.set(j) {
					c.dporTel.Backtrack()
				}
			}
		}

		// Classic FG race detection, pre-execution: a backtrack point at
		// the deepest stack frame whose executing transition races with
		// t (dependent and not merely its causal ancestor).
		c.dporRaceInsert(key, &fp, &c.fpt.fps[0], true)

		if !c.s.Reserve() {
			c.frameTop = depth
			return c.globalSummary()
		}
		// Every successor runs on a lent fork, reclaimed once its subtree
		// is done: none is applied to sys in place, because a later
		// race can still grow this state's backtrack set.
		child, epoch := sys.Lend()
		c.trace = append(c.trace, t)
		violated := c.s.Step(child, t, c.trace, &c.events)
		fpID := c.fpt.intern(fp)
		sum.add(&c.fpt, sumEntry{key: key, fp: fpID})
		if !violated {
			f.childSleep = f.childSleep[:0]
			for _, e := range f.working {
				if !dependent(e.fp, fp) {
					f.childSleep = append(f.childSleep, e)
				}
			}
			f.execIdx, f.execFp, f.execKey = i, fp, key
			c.computeHB(f, depth, fp)
			sub := c.dporVisit(child, f.childSleep)
			f.execIdx = -1
			sum.mergeFolded(&c.fpt, sub, fpID)
		}
		sys.Reclaim(child, epoch)
		c.trace = c.trace[:len(c.trace)-1]
		f.working = append(f.working, sleepEntry{key: key, fp: fp})
	}

	if only == nil {
		pruned := 0
		for i := 0; i < n; i++ {
			if f.asleep.get(i) {
				c.dporTel.SleepHit()
			} else if !f.done.get(i) {
				pruned++
			}
		}
		c.dporTel.Pruned(pruned)
	}
	c.frameTop = depth
	return sum
}

// nextIndex returns the lowest index in backtrack but not in done, or -1.
func nextIndex(backtrack, done *idxSet) int {
	for k, w := range backtrack.w {
		if avail := w &^ done.w[k]; avail != 0 {
			return k*64 + bits.TrailingZeros64(avail)
		}
	}
	return -1
}

// computeHB fills the executing frame's happens-before ancestry: itself
// plus the (transitively-closed) ancestries of every shallower executing
// frame whose transition is dependent with fp.
func (c *dporDFS) computeHB(f *dporFrame, depth int, fp footprint) {
	f.hb.reset(depth + 1)
	f.hb.set(depth)
	for e := 0; e < depth; e++ {
		g := &c.dporFrames[e]
		if g.execIdx >= 0 && dependent(g.execFp, fp) {
			f.hb.unionWith(&g.hb)
		}
	}
}

// keyIndex finds a transition key in a key list, or -1.
func keyIndex(keys []uint64, key uint64) int {
	for j, k := range keys {
		if k == key {
			return j
		}
	}
	return -1
}

// dporRaceInsert handles one pending transition — either the transition
// about to execute at the top of the stack (anc empty, exact), or a
// hidden transition summarized by a revisited state, carrying the union
// footprint of its subtree-local ancestry. It finds the deepest
// executing frame d racing with it and inserts one backtrack point
// there, FG-style:
//
//  1. a happens-before chain representative — a transition executed in
//     (d, top) that is an hb-ancestor of the pending one and enabled at
//     d — when one exists (reversing the race means scheduling the
//     chain's first step before frame d's transition). A path frame is
//     an hb-ancestor when it couples into the pending transition's
//     footprint or its recorded hidden ancestry; the candidates are only
//     certified when that ancestry is exact;
//  2. else the pending transition itself, when enabled at d (always a
//     certified insertion — no ancestry needed);
//  3. else, when the pending transition's whole causal past is visibly
//     on the path (exact empty anc — trivially true for path-pending
//     transitions), frame d's transition provably just enabled the
//     pending one: its enabler would otherwise be a visible
//     hb-ancestor, contradicting 1–2. A pure causal edge admits no
//     reversal, so scan on for a shallower racing frame. A summarized
//     transition with hidden ancestry admits no such proof (an
//     unnameable hidden ancestor could be enabled at d): insert the
//     full enabled set instead.
//
// One downward pass serves both the scan and the hb-ancestor set hbP
// (the union of the ancestries of every coupled frame): a frame's hb
// names only depths up to its own and the chain search at d reads only
// bits in (d, top), so the frames above d — already passed — have
// contributed every bit it can see.
func (c *dporDFS) dporRaceInsert(key uint64, fp, anc *footprint, ancExact bool) {
	top := c.frameTop
	hbP := &c.hbScratch
	useAnc := !anc.empty()
	if ancExact {
		hbP.reset(top)
	}
	for d := top - 1; d >= 0; d-- {
		f := &c.dporFrames[d]
		if f.execIdx < 0 {
			continue
		}
		if dependent(f.execFp, *fp) {
			j := -1
			if ancExact {
				for e := d + 1; e < top && j < 0; e++ {
					if g := &c.dporFrames[e]; g.execIdx >= 0 && hbP.get(e) {
						j = keyIndex(f.keys, g.execKey)
					}
				}
			}
			if j < 0 {
				j = keyIndex(f.keys, key)
			}
			if j >= 0 {
				if f.backtrack.set(j) {
					c.dporTel.Backtrack()
				}
				return
			}
			if useAnc || !ancExact {
				if f.backtrack.setAll(len(f.enabled)) {
					c.dporTel.Backtrack()
				}
				return
			}
			// Proven causal (ancExact holds here): keep looking shallower.
		} else if !ancExact || !useAnc || !dependent(f.execFp, *anc) {
			continue
		}
		hbP.unionWith(&f.hb)
	}
}

// dporResidualInsert handles a union-of-footprints residual, for which
// no single insertion point is sound: every dependent executing frame
// gets a full backtrack set.
func (c *dporDFS) dporResidualInsert(fp footprint) {
	for d := c.frameTop - 1; d >= 0; d-- {
		f := &c.dporFrames[d]
		if f.execIdx < 0 || !dependent(f.execFp, fp) {
			continue
		}
		if f.backtrack.setAll(len(f.enabled)) {
			c.dporTel.Backtrack()
		}
	}
}

// dporInsertSummary replays a stored subtree summary against the current
// stack: exact entries get precise race insertion, the residual the
// conservative all-frames treatment.
func (c *dporDFS) dporInsertSummary(sum dporSummary) {
	fps := c.fpt.fps
	for _, e := range sum.exact {
		c.dporRaceInsert(e.key, &fps[e.fp], &fps[e.anc&^ancInexact], e.anc&ancInexact == 0)
	}
	if sum.residual != 0 {
		c.dporResidualInsert(fps[sum.residual])
	}
}

// slippedKeys returns the stored-signature keys absent from the current
// sleep set: transitions asleep at the previous expansion, awake now.
func slippedKeys(stored []uint64, sleep []sleepEntry) []uint64 {
	var diff []uint64
	for _, k := range stored {
		if !containsKey(sleep, k) {
			diff = append(diff, k)
		}
	}
	return diff
}

// retainKeys appends to dst the stored-signature keys still in the
// current sleep set: their intersection.
func retainKeys(dst, stored []uint64, sleep []sleepEntry) []uint64 {
	for _, k := range stored {
		if containsKey(sleep, k) {
			dst = append(dst, k)
		}
	}
	return dst
}

func containsKey(sleep []sleepEntry, key uint64) bool {
	for _, e := range sleep {
		if e.key == key {
			return true
		}
	}
	return false
}
