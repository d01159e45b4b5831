package sym

import (
	"sort"
	"strconv"
	"strings"

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
// and the path condition it exercises.
type Result struct {
	Assignment Assignment
	PathKey    string
}

// Explore runs the generational search from the seed assignment and
// returns one Result per distinct feasible execution path.
func (e *Explorer) Explore(seed Assignment, run Runner) []Result {
	maxPaths := e.MaxPaths
	if maxPaths == 0 {
		maxPaths = 256
	}
	maxBranches := e.MaxBranches
	if maxBranches == 0 {
		maxBranches = 128
	}

	seenPaths := make(map[string]bool)
	seenInputs := make(map[string]bool)
	var results []Result

	worklist := []Assignment{seed.Clone()}
	seenInputs[assignmentKey(seed)] = true

	for len(worklist) > 0 && len(results) < maxPaths {
		asn := worklist[0]
		worklist = worklist[1:]

		tr := NewTrace()
		run(tr, asn)
		branches := tr.Branches()
		if len(branches) > maxBranches {
			branches = branches[:maxBranches]
		}
		pk := tr.PathKey()
		if seenPaths[pk] {
			continue // same equivalence class as an earlier input
		}
		seenPaths[pk] = true
		results = append(results, Result{Assignment: asn.Clone(), PathKey: pk})
		if e.Hooks.Path != nil {
			e.Hooks.Path()
		}

		// Generational expansion: for each branch, keep the prefix and
		// flip the branch itself.
		for i := range branches {
			constraints := make([]Expr, 0, i+1+len(e.BaseConstraints))
			constraints = append(constraints, e.BaseConstraints...)
			for j := 0; j < i; j++ {
				constraints = append(constraints, branches[j].Constraint())
			}
			flipped := Branch{Cond: branches[i].Cond, Taken: !branches[i].Taken}
			constraints = append(constraints, flipped.Constraint())

			model, ok := e.solve(constraints, asn)
			if !ok {
				continue
			}
			key := assignmentKey(model)
			if seenInputs[key] {
				continue
			}
			seenInputs[key] = true
			worklist = append(worklist, model)
		}
	}
	return results
}

// solve builds the finite-domain problem for a path condition: domains
// are the base candidates extended with constants mined from the
// constraints; variables absent from the model keep the current input's
// values so each solution is a total assignment.
func (e *Explorer) solve(constraints []Expr, current Assignment) (Assignment, bool) {
	mined := make(map[string]map[uint64]bool)
	if e.MineDomains {
		for _, c := range constraints {
			MineConstants(c, mined)
		}
	}
	vars := make(map[string]bool)
	for _, c := range constraints {
		c.Vars(vars)
	}
	names := make([]string, 0, len(vars))
	for v := range vars {
		names = append(names, v)
	}
	sort.Strings(names)

	var doms []Domain
	for _, v := range names {
		bits := 64
		if b, ok := e.Bits[v]; ok {
			bits = b
		}
		cands := MergeCandidates(e.Domains[v], mined[v], bits)
		if len(cands) == 0 {
			// No domain knowledge at all: fall back to the current
			// concrete value (cannot flip a branch on this variable,
			// but keeps the problem well-formed).
			cands = []uint64{current[v]}
		}
		doms = append(doms, Domain{Var: v, Candidates: cands})
	}

	model, ok := e.solveMemoized(Problem{Domains: doms, Constraints: constraints})
	if !ok {
		return nil, false
	}
	// Total-ize: carry over untouched variables.
	out := current.Clone()
	for k, v := range model {
		out[k] = v
	}
	return out, true
}

// solveMemoized answers a finite-domain problem through the memo when
// one is attached, falling back to (and recording) a fresh Solve.
func (e *Explorer) solveMemoized(p Problem) (Assignment, bool) {
	if e.Memo == nil {
		model, ok := Solve(p)
		if e.Hooks.Solve != nil {
			e.Hooks.Solve(ok, false)
		}
		return model, ok
	}
	key := ProblemKey(p)
	if model, sat, present := e.Memo.Get(key); present {
		if e.Hooks.Solve != nil {
			e.Hooks.Solve(sat, true)
		}
		return model, sat
	}
	model, ok := Solve(p)
	e.Memo.Put(key, model, ok)
	if e.Hooks.Solve != nil {
		e.Hooks.Solve(ok, false)
	}
	return model, ok
}

// ProblemKey digests a finite-domain problem into the 128-bit memo key:
// each domain's variable and candidate list, then each constraint's
// canonical rendering, in the problem's (deterministic) order. Solve is
// a pure function of exactly this rendering, so equal keys mean equal
// outcomes at fingerprint-grade collision odds.
func ProblemKey(p Problem) canon.Digest {
	var b strings.Builder
	for _, d := range p.Domains {
		b.WriteString(d.Var)
		b.WriteByte('=')
		for _, c := range d.Candidates {
			b.WriteString(strconv.FormatUint(c, 10))
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteByte('|')
	for _, c := range p.Constraints {
		b.WriteString(ExprKey(c))
		b.WriteByte('\n')
	}
	return canon.Hash128(b.String())
}

func assignmentKey(a Assignment) string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.FormatUint(a[k], 10))
		b.WriteByte(';')
	}
	return b.String()
}
