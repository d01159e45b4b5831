package sym

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstAndVarEval(t *testing.T) {
	if v, ok := Const(7).Eval(nil); !ok || v != 7 {
		t.Error("const eval broken")
	}
	x := Var{Name: "x", Bits: 8}
	if _, ok := x.Eval(Assignment{}); ok {
		t.Error("unassigned var evaluated as known")
	}
	if v, ok := x.Eval(Assignment{"x": 9}); !ok || v != 9 {
		t.Error("assigned var eval broken")
	}
}

func TestBinOpsAgainstGo(t *testing.T) {
	type binCase struct {
		op BinOp
		fn func(a, b uint64) uint64
	}
	cases := []binCase{
		{OpAnd, func(a, b uint64) uint64 { return a & b }},
		{OpOr, func(a, b uint64) uint64 { return a | b }},
		{OpXor, func(a, b uint64) uint64 { return a ^ b }},
		{OpAdd, func(a, b uint64) uint64 { return a + b }},
		{OpSub, func(a, b uint64) uint64 { return a - b }},
		{OpEq, func(a, b uint64) uint64 { return b01(a == b) }},
		{OpNe, func(a, b uint64) uint64 { return b01(a != b) }},
		{OpLt, func(a, b uint64) uint64 { return b01(a < b) }},
		{OpLe, func(a, b uint64) uint64 { return b01(a <= b) }},
		{OpGt, func(a, b uint64) uint64 { return b01(a > b) }},
		{OpGe, func(a, b uint64) uint64 { return b01(a >= b) }},
	}
	r := rand.New(rand.NewSource(1))
	for _, c := range cases {
		for i := 0; i < 200; i++ {
			a, b := r.Uint64(), r.Uint64()
			e := Bin{Op: c.op, A: Const(a), B: Const(b)}
			got, ok := e.Eval(nil)
			if !ok || got != c.fn(a, b) {
				t.Fatalf("op %v(%d,%d) = %d, want %d", opNames[c.op], a, b, got, c.fn(a, b))
			}
		}
	}
}

func TestShifts(t *testing.T) {
	e := Bin{Op: OpShr, A: Const(0xff00), B: Const(8)}
	if v, _ := e.Eval(nil); v != 0xff {
		t.Errorf("shr = %#x", v)
	}
	e = Bin{Op: OpShl, A: Const(1), B: Const(70)}
	if v, _ := e.Eval(nil); v != 0 {
		t.Errorf("oversized shl = %d, want 0", v)
	}
}

func TestThreeValuedShortCircuit(t *testing.T) {
	x := Var{Name: "x", Bits: 8}
	// false && unknown == false
	e := Bin{Op: OpLAnd, A: Const(0), B: x}
	if v, ok := e.Eval(Assignment{}); !ok || v != 0 {
		t.Error("false && unknown should be known false")
	}
	// true || unknown == true
	e = Bin{Op: OpLOr, A: Const(1), B: x}
	if v, ok := e.Eval(Assignment{}); !ok || v != 1 {
		t.Error("true || unknown should be known true")
	}
	// true && unknown == unknown
	e = Bin{Op: OpLAnd, A: Const(1), B: x}
	if _, ok := e.Eval(Assignment{}); ok {
		t.Error("true && unknown should be unknown")
	}
	// Not(unknown) == unknown
	if _, ok := (Not{A: x}).Eval(Assignment{}); ok {
		t.Error("!unknown should be unknown")
	}
}

func TestValueOpsCarryExprs(t *testing.T) {
	sym := Symbolic("f", 16, 100)
	conc := Concrete(40)
	sum := sym.Add(conc)
	if sum.C != 140 || !sum.IsSymbolic() {
		t.Errorf("add: %v", sum)
	}
	if got := conc.Add(Concrete(2)); got.IsSymbolic() {
		t.Error("concrete op grew an expression")
	}
	cmp := sym.Ge(Concrete(100))
	if !cmp.C || !cmp.IsSymbolic() {
		t.Errorf("cmp: %v", cmp)
	}
}

func TestValueByte(t *testing.T) {
	mac := Symbolic("mac", 48, 0x0123456789ab)
	if b := mac.Byte(0, 6); b.C != 0x01 {
		t.Errorf("byte 0 = %#x", b.C)
	}
	if b := mac.Byte(5, 6); b.C != 0xab {
		t.Errorf("byte 5 = %#x", b.C)
	}
	// The expression evaluates consistently under a new assignment.
	b0 := mac.Byte(0, 6)
	v, ok := b0.E.Eval(Assignment{"mac": 0xff0000000000})
	if !ok || v != 0xff {
		t.Errorf("byte expr eval = %d, %t", v, ok)
	}
}

func TestBoolOps(t *testing.T) {
	a := Symbolic("a", 8, 1).EqConst(1) // true, symbolic
	b := Symbolic("b", 8, 0).EqConst(1) // false, symbolic
	if a.And(b).C || !a.Or(b).C || !b.Not().C {
		t.Error("boolean concrete results wrong")
	}
	if !a.And(b).IsSymbolic() {
		t.Error("and lost symbolic expr")
	}
	if (Bool{C: true}).And(Bool{C: false}).IsSymbolic() {
		t.Error("pure concrete and grew an expression")
	}
}

func TestTraceRecordsOnlySymbolicBranches(t *testing.T) {
	tr := NewTrace()
	if !tr.If(Symbolic("x", 8, 3).EqConst(3)) {
		t.Error("If returned wrong truth")
	}
	tr.If(Bool{C: true}) // concrete: not recorded
	if len(tr.Branches()) != 1 {
		t.Fatalf("recorded %d branches, want 1", len(tr.Branches()))
	}
	var nilTrace *Trace
	if !nilTrace.If(Symbolic("y", 8, 1).EqConst(1)) {
		t.Error("nil trace If returned wrong truth")
	}
}

func TestBranchConstraint(t *testing.T) {
	cond := Bin{Op: OpEq, A: Var{Name: "x"}, B: Const(5)}
	taken := Branch{Cond: cond, Taken: true}
	v, _ := taken.Constraint().Eval(Assignment{"x": 5})
	if v != 1 {
		t.Error("taken constraint unsatisfied by witness")
	}
	flipped := Branch{Cond: cond, Taken: false}
	v, _ = flipped.Constraint().Eval(Assignment{"x": 5})
	if v != 0 {
		t.Error("negated constraint satisfied by witness")
	}
}

func TestSolveSimple(t *testing.T) {
	p := Problem{
		Domains: []Domain{{Var: "x", Candidates: []uint64{1, 2, 3}}},
		Constraints: []Expr{
			Bin{Op: OpGt, A: Var{Name: "x"}, B: Const(1)},
			Bin{Op: OpLt, A: Var{Name: "x"}, B: Const(3)},
		},
	}
	asn, ok := Solve(p)
	if !ok || asn["x"] != 2 {
		t.Fatalf("solve = %v, %t", asn, ok)
	}
}

func TestSolveUnsat(t *testing.T) {
	p := Problem{
		Domains: []Domain{{Var: "x", Candidates: []uint64{1, 2}}},
		Constraints: []Expr{
			Bin{Op: OpEq, A: Var{Name: "x"}, B: Const(9)},
		},
	}
	if _, ok := Solve(p); ok {
		t.Error("unsat problem solved")
	}
}

func TestSolveMultiVarJoint(t *testing.T) {
	// x + y == 5 with narrow domains forces (2, 3).
	p := Problem{
		Domains: []Domain{
			{Var: "x", Candidates: []uint64{1, 2}},
			{Var: "y", Candidates: []uint64{3, 9}},
		},
		Constraints: []Expr{
			Bin{Op: OpEq, A: Bin{Op: OpAdd, A: Var{Name: "x"}, B: Var{Name: "y"}}, B: Const(5)},
		},
	}
	asn, ok := Solve(p)
	if !ok || asn["x"] != 2 || asn["y"] != 3 {
		t.Fatalf("solve = %v", asn)
	}
}

func TestSolveMissingDomainIsUnsat(t *testing.T) {
	p := Problem{
		Constraints: []Expr{Bin{Op: OpEq, A: Var{Name: "ghost"}, B: Const(1)}},
	}
	if _, ok := Solve(p); ok {
		t.Error("problem with an undomained variable solved")
	}
}

// TestSolveSolutionsAlwaysSatisfy is the solver's soundness property:
// whatever it returns satisfies every constraint.
func TestSolveSolutionsAlwaysSatisfy(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ops := []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	for trial := 0; trial < 2000; trial++ {
		vars := []string{"a", "b", "c"}
		var doms []Domain
		for _, v := range vars {
			n := 1 + r.Intn(4)
			cands := make([]uint64, n)
			for i := range cands {
				cands[i] = uint64(r.Intn(6))
			}
			doms = append(doms, Domain{Var: v, Candidates: cands})
		}
		var constraints []Expr
		for i := 0; i < 1+r.Intn(3); i++ {
			op := ops[r.Intn(len(ops))]
			a := Var{Name: vars[r.Intn(len(vars))], Bits: 8}
			constraints = append(constraints, Bin{Op: op, A: a, B: Const(uint64(r.Intn(6)))})
		}
		asn, ok := Solve(Problem{Domains: doms, Constraints: constraints})
		if !ok {
			continue
		}
		for _, c := range constraints {
			v, known := c.Eval(asn)
			if !known || v == 0 {
				t.Fatalf("solution %v violates %v", asn, c)
			}
		}
	}
}

func TestMineConstants(t *testing.T) {
	e := Bin{Op: OpGe, A: Var{Name: "load"}, B: Const(1000)}
	into := make(map[string]map[uint64]bool)
	MineConstants(e, into)
	for _, want := range []uint64{999, 1000, 1001} {
		if !into["load"][want] {
			t.Errorf("missing mined constant %d", want)
		}
	}
	// Nested in Not and LAnd.
	into = make(map[string]map[uint64]bool)
	MineConstants(Not{A: Bin{Op: OpLAnd,
		A: Bin{Op: OpEq, A: Var{Name: "x"}, B: Const(5)},
		B: Const(1)}}, into)
	if !into["x"][5] {
		t.Error("nested constants not mined")
	}
}

func TestMergeCandidatesMasksAndSorts(t *testing.T) {
	got := MergeCandidates([]uint64{0x1ff, 5}, map[uint64]bool{3: true, 5: true}, 8)
	want := []uint64{3, 5, 0xff}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestAssignmentClone(t *testing.T) {
	f := func(v uint64) bool {
		a := Assignment{"x": v}
		c := a.Clone()
		c["x"] = v + 1
		return a["x"] == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
