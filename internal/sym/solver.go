package sym

import (
	"sort"
)

// Domain is the finite candidate set of one symbolic variable. NICE
// constrains header fields with domain knowledge — "the MAC and IP
// addresses used by the hosts and switches in the system model, as
// specified by the input topology" (§3.2) — plus a fresh value per field
// and boundary constants mined from the path condition. Over such
// domains, exhaustive backtracking search is a sound and complete
// decision procedure, which is the role STP plays in the original
// prototype (see docs/ARCHITECTURE.md, "Deviations from the paper").
type Domain struct {
	Var        string
	Candidates []uint64
}

// Problem is a conjunction of boolean (0/1) constraints over variables
// with finite domains.
type Problem struct {
	Domains     []Domain
	Constraints []Expr
}

// Solve searches for an assignment satisfying every constraint. It
// returns ok=false when the problem is unsatisfiable over the given
// domains. The search assigns variables in domain order and prunes with
// three-valued partial evaluation: any constraint already known false
// under a partial assignment cuts that subtree.
func Solve(p Problem) (Assignment, bool) {
	// Only branch on variables the constraints actually mention; free
	// variables keep their caller-chosen defaults.
	mentioned := make(map[string]bool)
	for _, c := range p.Constraints {
		c.Vars(mentioned)
	}
	var doms []Domain
	for _, d := range p.Domains {
		if mentioned[d.Var] {
			doms = append(doms, d)
		}
	}
	// A variable mentioned by constraints but lacking a domain makes
	// the problem undecidable for us; treat as unsat (the engine always
	// provides domains for every symbolic variable it creates).
	for v := range mentioned {
		found := false
		for _, d := range doms {
			if d.Var == v {
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	asn := make(Assignment, len(doms))
	if !backtrack(doms, p.Constraints, asn, 0) {
		return nil, false
	}
	return asn, true
}

func backtrack(doms []Domain, constraints []Expr, asn Assignment, depth int) bool {
	if depth == len(doms) {
		for _, c := range constraints {
			v, known := c.Eval(asn)
			if !known || v == 0 {
				return false
			}
		}
		return true
	}
	d := doms[depth]
	for _, cand := range d.Candidates {
		asn[d.Var] = cand
		if prune(constraints, asn) {
			continue
		}
		if backtrack(doms, constraints, asn, depth+1) {
			return true
		}
	}
	delete(asn, d.Var)
	return false
}

// prune reports whether any constraint is already known false.
func prune(constraints []Expr, asn Assignment) bool {
	for _, c := range constraints {
		if v, known := c.Eval(asn); known && v == 0 {
			return true
		}
	}
	return false
}

// MergeCandidates combines base candidates with mined constants, masked
// to the variable's width, deduplicated and sorted for determinism.
func MergeCandidates(base []uint64, mined map[uint64]bool, bits int) []uint64 {
	mask := ^uint64(0)
	if bits < 64 {
		mask = (uint64(1) << uint(bits)) - 1
	}
	set := make(map[uint64]bool, len(base)+len(mined))
	for _, v := range base {
		set[v&mask] = true
	}
	for v := range mined {
		set[v&mask] = true
	}
	out := make([]uint64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
