package sym

import (
	"cmp"
	"maps"
	"sort"

	"github.com/nice-go/nice/internal/canon"
)

// Runner executes the code under test (a controller event handler) with
// inputs instantiated from the assignment, recording packet-dependent
// branches into the trace. Runners must be deterministic and
// side-effect-free on shared state (the controller runtime hands the
// engine a cloned application, mirroring how NICE discards handler
// effects during discover_packets).
type Runner func(tr *Trace, asn Assignment)

// Explorer performs generational concolic exploration (DART-style, the
// technique §6 names): run concretely, collect the path condition, flip
// each suffix branch, solve, and re-run, until no unexplored feasible
// path remains or the budget is exhausted.
type Explorer struct {
	// Domains provides the base candidate set per symbolic variable
	// (topology addresses, fresh values, protocol constants). Mined
	// comparison constants are merged in automatically.
	Domains map[string][]uint64
	// Bits gives variable widths for candidate masking (defaults to 64).
	Bits map[string]int
	// BaseConstraints are domain-knowledge constraints conjoined with
	// every path condition (e.g. "eth_type == 0x0800" for an
	// IP-only scenario).
	BaseConstraints []Expr
	// MaxPaths caps explored paths (equivalence classes); 0 = 256.
	MaxPaths int
	// MaxBranches caps the recorded path-condition length; 0 = 128.
	MaxBranches int
	// MineDomains extends candidate domains with comparison constants
	// (c−1, c, c+1) mined from the path condition. discover_stats
	// needs this to cross utilization thresholds; packet fields keep
	// their topology-derived domains pure, as the paper's domain
	// knowledge prescribes (§3.2).
	MineDomains bool
	// Memo, when non-nil, caches solver outcomes across explorations:
	// the key digests the solved problem (merged candidate domains plus
	// the path condition), the value is the raw model before
	// total-ization, so one memo serves every concrete input that
	// reaches the same branch flip. Solving is deterministic, so a
	// memo shared across goroutines (core.Caches hosts one) only
	// trades repeat solver work for a lookup.
	Memo Memo
	// Hooks receives per-path and per-solver-call notifications
	// (telemetry). Zero-valued fields are no-ops.
	Hooks Hooks
}

// Memo caches solver results keyed by the 128-bit digest of a
// finite-domain problem — the same keying discipline as the discover
// caches. Implementations must be safe for concurrent use. A stored
// model must be treated as immutable by both sides.
type Memo interface {
	// Get returns the memoized model and satisfiability for key;
	// present reports whether the key was found.
	Get(key canon.Digest) (model Assignment, sat bool, present bool)
	// Put memoizes one solver outcome; the first writer wins.
	Put(key canon.Digest, model Assignment, sat bool)
}

// Hooks are the Explorer's optional instrumentation callbacks.
type Hooks struct {
	// Path fires once per distinct feasible path (equivalence class)
	// discovered.
	Path func()
	// Solve fires once per solver invocation with the outcome and
	// whether the memo answered it.
	Solve func(sat, memoHit bool)
}

// Result is one discovered equivalence class: the satisfying assignment
// and the digest of the path condition it exercises.
type Result struct {
	Assignment Assignment
	Path       canon.Digest
}

// Explore runs the generational search from the seed assignment and
// returns one Result per distinct feasible execution path.
func (e *Explorer) Explore(seed Assignment, run Runner) []Result {
	maxPaths, maxBranches := cmp.Or(e.MaxPaths, 256), cmp.Or(e.MaxBranches, 128)

	seenPaths := make(map[canon.Digest]bool)
	seenInputs := map[canon.Digest]bool{seed.key(): true}
	var results []Result
	sc := solveScratch{vars: make(map[string]bool), mined: make(map[string]map[uint64]bool)}
	tr := NewTrace()

	worklist := []Assignment{seed.Clone()}
	for len(worklist) > 0 && len(results) < maxPaths {
		asn := worklist[0]
		worklist = worklist[1:]

		tr.branches = tr.branches[:0]
		run(tr, asn)
		pk := tr.path()
		if seenPaths[pk] {
			continue // same equivalence class as an earlier input
		}
		seenPaths[pk] = true
		results = append(results, Result{Assignment: asn, Path: pk})
		if e.Hooks.Path != nil {
			e.Hooks.Path()
		}
		branches := tr.branches
		if len(branches) > maxBranches {
			branches = branches[:maxBranches]
		}

		// Generational expansion: for each branch, keep the prefix and
		// flip the branch itself. The prefix grows one constraint per
		// branch; the solver keeps none of them. A model is keyed as
		// overlaid on asn and built only when that input is new.
		key := asn.key()
		cons := append(sc.cons[:0], e.BaseConstraints...)
		for _, br := range branches {
			flipped := Branch{Cond: br.Cond, Taken: !br.Taken}
			model, ok := e.solve(&sc, append(cons, flipped.Constraint()), asn)
			cons = append(cons, br.Constraint())
			if !ok {
				continue
			}
			next := asn.overlaidKey(key, model)
			if seenInputs[next] {
				continue
			}
			seenInputs[next] = true
			// Total-ize: variables the model leaves out keep asn's values.
			out := asn.Clone()
			maps.Copy(out, model)
			worklist = append(worklist, out)
		}
		sc.cons = cons
	}
	return results
}

// solveScratch holds one exploration's solver buffers, reused across
// its solver calls.
type solveScratch struct {
	cons  []Expr
	vars  map[string]bool
	mined map[string]map[uint64]bool
	names []string
	doms  []Domain
}

// solve builds the finite-domain problem for a path condition and
// returns its raw model: domains are the base candidates extended with
// constants mined from the constraints, over the variables the
// constraints mention, in name order.
func (e *Explorer) solve(sc *solveScratch, constraints []Expr, current Assignment) (Assignment, bool) {
	clear(sc.vars)
	for _, set := range sc.mined {
		clear(set)
	}
	for _, c := range constraints {
		if e.MineDomains {
			MineConstants(c, sc.mined)
		}
		c.Vars(sc.vars)
	}
	names := sc.names[:0]
	for v := range sc.vars {
		names = append(names, v)
	}
	sort.Strings(names)

	doms := sc.doms[:0]
	for _, v := range names {
		bits := 64
		if b, ok := e.Bits[v]; ok {
			bits = b
		}
		cands := MergeCandidates(e.Domains[v], sc.mined[v], bits)
		if len(cands) == 0 {
			// No domain knowledge at all: fall back to the current
			// concrete value (cannot flip a branch on this variable,
			// but keeps the problem well-formed).
			cands = []uint64{current[v]}
		}
		doms = append(doms, Domain{Var: v, Candidates: cands})
	}
	sc.names, sc.doms = names, doms
	return e.solveMemoized(Problem{Domains: doms, Constraints: constraints})
}

// solveMemoized answers a finite-domain problem through the memo when
// one is attached, falling back to (and recording) a fresh Solve.
func (e *Explorer) solveMemoized(p Problem) (model Assignment, sat bool) {
	hit := false
	if e.Memo == nil {
		model, sat = Solve(p)
	} else {
		key := ProblemKey(p)
		if model, sat, hit = e.Memo.Get(key); !hit {
			model, sat = Solve(p)
			e.Memo.Put(key, model, sat)
		}
	}
	if e.Hooks.Solve != nil {
		e.Hooks.Solve(sat, hit)
	}
	return model, sat
}

// ProblemKey digests a finite-domain problem into the 128-bit memo key,
// structurally: each domain's variable, candidate count and candidates,
// then each constraint through mixExpr, in the problem's
// (deterministic) order. Solve is a pure function of exactly these
// words, so equal keys mean equal outcomes at fingerprint-grade
// collision odds.
func ProblemKey(p Problem) canon.Digest {
	h := canon.NewMix128().Word(uint64(len(p.Domains)))
	for _, d := range p.Domains {
		h = h.Str(d.Var).Word(uint64(len(d.Candidates)))
		for _, c := range d.Candidates {
			h = h.Word(c)
		}
	}
	for _, c := range p.Constraints {
		h = mixExpr(h, c)
	}
	return h.Sum()
}

// key is the assignment's order-free digest: the wrapping sum of one
// digest per entry, as a flow table sums its rules, so equal maps key
// alike in any iteration order.
func (a Assignment) key() canon.Digest { return Assignment(nil).overlaidKey(canon.Digest{}, a) }

// overlaidKey is the key of a with model written over it, given a's
// key k, without building the overlay: each entry the model names
// trades a's entry digest, if any, for its own.
func (a Assignment) overlaidKey(k canon.Digest, model Assignment) canon.Digest {
	for name, v := range model {
		if old, ok := a[name]; ok {
			k = addEntry(k, name, old, ^uint64(0))
		}
		k = addEntry(k, name, v, 1)
	}
	return k
}

// addEntry adds sign (1 or −1) times the digest of one entry to k.
func addEntry(k canon.Digest, name string, v, sign uint64) canon.Digest {
	e := canon.NewMix128().Str(name).Word(v).Sum()
	return canon.Digest{k[0] + sign*e[0], k[1] + sign*e[1]}
}
