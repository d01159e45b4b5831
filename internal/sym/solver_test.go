package sym

import (
	"testing"

	"github.com/nice-go/nice/internal/canon"
)

// TestSolveUnsatMatrix pins the solver's unsat contract: contradictory
// constraints over well-formed domains return (nil, false), never a
// model.
func TestSolveUnsatMatrix(t *testing.T) {
	x := Var{Name: "x", Bits: 8}
	cases := []struct {
		name string
		p    Problem
	}{
		{"eq-and-ne", Problem{
			Domains:     []Domain{{Var: "x", Candidates: []uint64{1, 2, 3}}},
			Constraints: []Expr{Bin{Op: OpEq, A: x, B: Const(2)}, Bin{Op: OpNe, A: x, B: Const(2)}},
		}},
		{"value-outside-domain", Problem{
			Domains:     []Domain{{Var: "x", Candidates: []uint64{1, 2, 3}}},
			Constraints: []Expr{Bin{Op: OpEq, A: x, B: Const(7)}},
		}},
		{"empty-interval", Problem{
			Domains: []Domain{{Var: "x", Candidates: []uint64{0, 5, 10, 255}}},
			Constraints: []Expr{
				Bin{Op: OpGt, A: x, B: Const(10)},
				Bin{Op: OpLt, A: x, B: Const(11)},
			},
		}},
		{"lognot-contradiction", Problem{
			Domains: []Domain{{Var: "x", Candidates: []uint64{0, 1}}},
			Constraints: []Expr{
				Bin{Op: OpEq, A: x, B: Const(1)},
				Not{A: Bin{Op: OpEq, A: x, B: Const(1)}},
			},
		}},
		{"missing-domain", Problem{
			// y is mentioned but has no domain: undecidable, so unsat.
			Domains:     []Domain{{Var: "x", Candidates: []uint64{1}}},
			Constraints: []Expr{Bin{Op: OpEq, A: Var{Name: "y"}, B: Const(1)}},
		}},
		{"empty-candidates", Problem{
			Domains:     []Domain{{Var: "x", Candidates: nil}},
			Constraints: []Expr{Bin{Op: OpEq, A: x, B: x}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			model, ok := Solve(tc.p)
			if ok {
				t.Fatalf("Solve = %v, want unsat", model)
			}
			if model != nil {
				t.Fatalf("unsat returned non-nil model %v", model)
			}
		})
	}
}

// TestSolveEdgeIntervals exercises comparison boundaries: the solver
// must pick exactly the candidates at interval edges, including the
// extremes of the domain and of the bit width.
func TestSolveEdgeIntervals(t *testing.T) {
	x := Var{Name: "x", Bits: 8}
	dom := []Domain{{Var: "x", Candidates: []uint64{0, 9, 10, 11, 255}}}
	cases := []struct {
		name string
		cs   []Expr
		want uint64
	}{
		{"exactly-above", []Expr{Bin{Op: OpGt, A: x, B: Const(10)}, Bin{Op: OpLe, A: x, B: Const(11)}}, 11},
		{"exactly-below", []Expr{Bin{Op: OpLt, A: x, B: Const(10)}, Bin{Op: OpGe, A: x, B: Const(9)}}, 9},
		{"pin-zero", []Expr{Bin{Op: OpLt, A: x, B: Const(9)}}, 0},
		{"pin-max", []Expr{Bin{Op: OpGt, A: x, B: Const(11)}}, 255},
		{"closed-point", []Expr{Bin{Op: OpGe, A: x, B: Const(10)}, Bin{Op: OpLe, A: x, B: Const(10)}}, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			model, ok := Solve(Problem{Domains: dom, Constraints: tc.cs})
			if !ok {
				t.Fatal("Solve = unsat, want sat")
			}
			if model["x"] != tc.want {
				t.Fatalf("x = %d, want %d", model["x"], tc.want)
			}
		})
	}
}

// TestMergeCandidatesMasking pins the width masking at its edges: mined
// constants wider than the variable wrap into the domain, and 64-bit
// variables must not shift out of range.
func TestMergeCandidatesMasking(t *testing.T) {
	got := MergeCandidates([]uint64{1, 0x1ff}, map[uint64]bool{0x100: true}, 8)
	want := []uint64{0, 1, 0xff}
	if len(got) != len(want) {
		t.Fatalf("MergeCandidates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MergeCandidates = %v, want %v", got, want)
		}
	}
	full := MergeCandidates([]uint64{^uint64(0)}, map[uint64]bool{0: true}, 64)
	if len(full) != 2 || full[0] != 0 || full[1] != ^uint64(0) {
		t.Fatalf("MergeCandidates(64-bit) = %v", full)
	}
}

// fuzzVarNames is the fixed variable universe of the fuzz generator.
var fuzzVarNames = []string{"a", "b", "c"}

// fuzzProblem deterministically decodes a byte stream into a small
// finite-domain problem: every byte consumed steers one generator
// choice, so the corpus stays reproducible and minimizable.
func fuzzProblem(data []byte) Problem {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	doms := make([]Domain, len(fuzzVarNames))
	for i, name := range fuzzVarNames {
		n := int(next()%3) + 1
		cands := make([]uint64, 0, n)
		for j := 0; j < n; j++ {
			cands = append(cands, uint64(next()%8))
		}
		doms[i] = Domain{Var: name, Candidates: MergeCandidates(cands, nil, 4)}
	}
	var leaf func(depth int) Expr
	leaf = func(depth int) Expr {
		switch b := next(); {
		case depth > 2 || b%4 == 0:
			return Const(next() % 8)
		case b%4 == 1:
			return Var{Name: fuzzVarNames[int(next())%len(fuzzVarNames)], Bits: 4}
		case b%4 == 2:
			ops := []BinOp{OpAnd, OpOr, OpXor, OpAdd, OpSub, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLAnd, OpLOr}
			return Bin{Op: ops[int(next())%len(ops)], A: leaf(depth + 1), B: leaf(depth + 1)}
		default:
			return Not{A: leaf(depth + 1)}
		}
	}
	nc := int(next()%4) + 1
	cs := make([]Expr, 0, nc)
	for i := 0; i < nc; i++ {
		// Comparisons keep most constraints boolean-shaped, as real
		// path conditions are; raw arithmetic roots are valid too
		// (nonzero counts as true).
		cs = append(cs, Bin{
			Op: []BinOp{OpEq, OpNe, OpLt, OpGe}[int(next())%4],
			A:  leaf(0), B: leaf(0),
		})
	}
	return Problem{Domains: doms, Constraints: cs}
}

// bruteForceSat exhaustively checks satisfiability over the (tiny)
// candidate domains — the oracle the solver is differentially fuzzed
// against.
func bruteForceSat(p Problem) bool {
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
	asn := make(Assignment, len(doms))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(doms) {
			for _, c := range p.Constraints {
				v, known := c.Eval(asn)
				if !known || v == 0 {
					return false
				}
			}
			return true
		}
		for _, cand := range doms[i].Candidates {
			asn[doms[i].Var] = cand
			if rec(i + 1) {
				return true
			}
		}
		delete(asn, doms[i].Var)
		return false
	}
	return rec(0)
}

// FuzzSolverSoundness fuzzes the finite-domain solver against a
// brute-force oracle: every sat model must actually satisfy all path
// constraints with in-domain values, and unsat must (a) never carry a
// model and (b) agree with exhaustive search over the domains.
func FuzzSolverSoundness(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{2, 7, 1, 0, 2, 5, 3, 1, 1, 2, 0, 4, 2, 9, 1, 1, 3, 3})
	f.Add([]byte{255, 254, 253, 0, 0, 0, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		p := fuzzProblem(data)
		model, ok := Solve(p)
		if !ok {
			if model != nil {
				t.Fatalf("unsat returned non-nil model %v", model)
			}
			if bruteForceSat(p) {
				t.Fatalf("solver says unsat but brute force finds a model: %v", p.Constraints)
			}
			return
		}
		for _, c := range p.Constraints {
			v, known := c.Eval(model)
			if !known {
				t.Fatalf("sat model %v leaves constraint %s undetermined", model, c.String())
			}
			if v == 0 {
				t.Fatalf("sat model %v violates constraint %s", model, c.String())
			}
		}
		for name, val := range model {
			inDomain := false
			for _, d := range p.Domains {
				if d.Var != name {
					continue
				}
				for _, cand := range d.Candidates {
					if cand == val {
						inDomain = true
					}
				}
			}
			if !inDomain {
				t.Fatalf("model assigns %s=%d outside its domain", name, val)
			}
		}
	})
}

// memoRecorder is a test Memo that counts traffic.
type memoRecorder struct {
	m    map[canon.Digest]memoEntry
	gets int
	hits int
	puts int
}

type memoEntry struct {
	model Assignment
	sat   bool
}

func (r *memoRecorder) Get(key canon.Digest) (Assignment, bool, bool) {
	r.gets++
	e, ok := r.m[key]
	if ok {
		r.hits++
	}
	return e.model, e.sat, ok
}

func (r *memoRecorder) Put(key canon.Digest, model Assignment, sat bool) {
	if _, ok := r.m[key]; !ok {
		r.m[key] = memoEntry{model: model, sat: sat}
	}
	r.puts++
}

// TestExplorerMemo proves the memo short-circuits repeat explorations:
// a second identical Explore answers every solver query from the memo
// and discovers the identical class set, and the hooks see consistent
// sat/hit counts.
func TestExplorerMemo(t *testing.T) {
	memo := &memoRecorder{m: make(map[canon.Digest]memoEntry)}
	var solves, memoHits int
	newExplorer := func() *Explorer {
		return &Explorer{
			Domains: map[string][]uint64{"f": {0, 1, 2, 3}},
			Bits:    map[string]int{"f": 4},
			Memo:    memo,
			Hooks: Hooks{Solve: func(sat, hit bool) {
				solves++
				if hit {
					memoHits++
				}
			}},
		}
	}
	run := func(tr *Trace, asn Assignment) {
		v := Symbolic("f", 4, asn["f"])
		if tr.If(v.Eq(Concrete(2))) {
			return
		}
		tr.If(v.Lt(Concrete(1)))
	}
	first := newExplorer().Explore(Assignment{"f": 0}, run)
	if memo.puts == 0 {
		t.Fatal("first exploration never filled the memo")
	}
	coldSolves, coldHits := solves, memoHits
	second := newExplorer().Explore(Assignment{"f": 0}, run)
	if len(second) != len(first) {
		t.Fatalf("memoized exploration found %d classes, cold found %d", len(second), len(first))
	}
	warm, warmHits := solves-coldSolves, memoHits-coldHits
	if warmHits != warm {
		t.Fatalf("memoized exploration: %d solver calls but only %d memo hits", warm, warmHits)
	}
	keys := func(rs []Result) map[canon.Digest]bool {
		out := make(map[canon.Digest]bool, len(rs))
		for _, r := range rs {
			out[r.Path] = true
		}
		return out
	}
	f, s := keys(first), keys(second)
	if len(f) != len(first) || len(f) < 2 {
		t.Fatalf("%d classes carry %d distinct path digests, want one each and at least 2", len(first), len(f))
	}
	for k := range f {
		if !s[k] {
			t.Fatalf("memoized exploration lost path %x", k)
		}
	}
}
