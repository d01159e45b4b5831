// Package sym implements NICE's concolic-execution machinery (§3, §6 of
// the paper): symbolic bit-vector expressions, symbolic packets whose
// header fields are lazily tracked symbolic integers, path-constraint
// collection, a finite-domain constraint solver standing in for STP, and
// the generational path-exploration engine that turns a controller event
// handler into a set of packet equivalence classes.
//
// Controller handlers run the same code concretely (inside the model
// checker) and concolically (inside discover_packets): field accessors
// return Value/Bool wrappers carrying both a concrete value and, when the
// input is symbolic, an expression tree. Branch outcomes are recorded
// when handlers evaluate conditions through Trace.If — the moral
// equivalent of the paper's AST instrumentation of Python branches.
package sym

import (
	"fmt"
	"maps"
	"strconv"

	"github.com/nice-go/nice/internal/canon"
)

// Assignment maps symbolic-variable names to concrete values. A partial
// assignment leaves some variables absent; evaluation over a partial
// assignment is three-valued (known true / known false / unknown).
type Assignment map[string]uint64

// Clone copies the assignment.
func (a Assignment) Clone() Assignment {
	c := make(Assignment, len(a))
	maps.Copy(c, a)
	return c
}

// Expr is a bit-vector expression evaluating to a uint64. Boolean
// expressions evaluate to 0 or 1. Expressions are immutable trees.
type Expr interface {
	// Eval evaluates under a (possibly partial) assignment; known is
	// false when an unassigned variable blocks the result. Logical
	// operators short-circuit, so partially known operands can still
	// produce known results.
	Eval(a Assignment) (val uint64, known bool)
	// Vars accumulates the names of variables the expression mentions.
	Vars(set map[string]bool)
	String() string
}

// Const is a literal.
type Const uint64

// Eval implements Expr.
func (c Const) Eval(Assignment) (uint64, bool) { return uint64(c), true }

// Vars implements Expr.
func (c Const) Vars(map[string]bool) {}

func (c Const) String() string { return strconv.FormatUint(uint64(c), 10) }

// Var is a named symbolic variable of the given bit width.
type Var struct {
	Name string
	Bits int
}

// Eval implements Expr.
func (v Var) Eval(a Assignment) (uint64, bool) {
	val, ok := a[v.Name]
	return val, ok
}

// Vars implements Expr.
func (v Var) Vars(set map[string]bool) { set[v.Name] = true }

func (v Var) String() string { return v.Name }

// BinOp enumerates arithmetic/bitwise/comparison operators.
type BinOp int

const (
	OpAnd BinOp = iota // bitwise and
	OpOr               // bitwise or
	OpXor
	OpAdd
	OpSub
	OpShr // logical shift right
	OpShl
	OpEq // comparisons evaluate to 0/1
	OpNe
	OpLt // unsigned
	OpLe
	OpGt
	OpGe
	OpLAnd // logical and of 0/1 operands (short-circuiting eval)
	OpLOr
)

var opNames = map[BinOp]string{
	OpAnd: "&", OpOr: "|", OpXor: "^", OpAdd: "+", OpSub: "-",
	OpShr: ">>", OpShl: "<<", OpEq: "==", OpNe: "!=",
	OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpLAnd: "&&", OpLOr: "||",
}

// Bin is a binary operation node.
type Bin struct {
	Op   BinOp
	A, B Expr
}

// Eval implements Expr with three-valued logic: logical operators return
// known results when one side already decides them.
func (b Bin) Eval(a Assignment) (uint64, bool) {
	av, aok := b.A.Eval(a)
	bv, bok := b.B.Eval(a)
	switch b.Op {
	case OpLAnd:
		if aok && av == 0 || bok && bv == 0 {
			return 0, true
		}
		if aok && bok {
			return 1, true
		}
		return 0, false
	case OpLOr:
		if aok && av != 0 || bok && bv != 0 {
			return 1, true
		}
		if aok && bok {
			return 0, true
		}
		return 0, false
	}
	if !aok || !bok {
		return 0, false
	}
	switch b.Op {
	case OpAnd:
		return av & bv, true
	case OpOr:
		return av | bv, true
	case OpXor:
		return av ^ bv, true
	case OpAdd:
		return av + bv, true
	case OpSub:
		return av - bv, true
	case OpShr:
		if bv >= 64 {
			return 0, true
		}
		return av >> bv, true
	case OpShl:
		if bv >= 64 {
			return 0, true
		}
		return av << bv, true
	case OpEq:
		return b01(av == bv), true
	case OpNe:
		return b01(av != bv), true
	case OpLt:
		return b01(av < bv), true
	case OpLe:
		return b01(av <= bv), true
	case OpGt:
		return b01(av > bv), true
	case OpGe:
		return b01(av >= bv), true
	default:
		panic(fmt.Sprintf("sym: unknown op %d", int(b.Op)))
	}
}

// Vars implements Expr.
func (b Bin) Vars(set map[string]bool) {
	b.A.Vars(set)
	b.B.Vars(set)
}

func (b Bin) String() string {
	// Plain concatenation: these renderings key the path and solver
	// memos, so the explorer builds thousands per discover run.
	return "(" + b.A.String() + " " + opNames[b.Op] + " " + b.B.String() + ")"
}

// Not negates a boolean (0/1) expression.
type Not struct{ A Expr }

// Eval implements Expr.
func (n Not) Eval(a Assignment) (uint64, bool) {
	v, ok := n.A.Eval(a)
	if !ok {
		return 0, false
	}
	return b01(v == 0), true
}

// Vars implements Expr.
func (n Not) Vars(set map[string]bool) { n.A.Vars(set) }

func (n Not) String() string { return "!" + n.A.String() }

func b01(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// MineConstants walks an expression and collects, per variable, the
// constants it is compared or masked against. The solver seeds candidate
// domains with c−1, c and c+1 for each mined constant — the standard
// concolic trick for crossing comparison boundaries without a full SMT
// solver, and the mechanism by which discover_stats finds utilization
// thresholds (§3.3).
func MineConstants(e Expr, into map[string]map[uint64]bool) {
	bin, ok := e.(Bin)
	if !ok {
		if n, ok := e.(Not); ok {
			MineConstants(n.A, into)
		}
		return
	}
	switch bin.Op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		mineCmp(bin.A, bin.B, into)
		mineCmp(bin.B, bin.A, into)
	}
	MineConstants(bin.A, into)
	MineConstants(bin.B, into)
}

// mineCmp records constants from "varSide <cmp> constSide" shapes.
func mineCmp(varSide, constSide Expr, into map[string]map[uint64]bool) {
	c, ok := constSide.(Const)
	if !ok {
		return
	}
	vars := make(map[string]bool)
	varSide.Vars(vars)
	for name := range vars {
		set := into[name]
		if set == nil {
			set = make(map[uint64]bool)
			into[name] = set
		}
		v := uint64(c)
		set[v] = true
		if v > 0 {
			set[v-1] = true
		}
		set[v+1] = true
	}
}

// Tag words of mixExpr, one per expression kind.
const tagConst, tagVar, tagBin, tagNot, tagOther = 1, 2, 3, 4, 5

// mixExpr folds an expression into a structural digest, a word at a
// time and without rendering it. It folds exactly what String renders:
// a Var its name only (not its width), a Bin its operator and then its
// operands in order. So expressions that render alike digest alike,
// and the solver memo keys on what Solve reads.
func mixExpr(m canon.Mix128, e Expr) canon.Mix128 {
	switch x := e.(type) {
	case Const:
		return m.Word(tagConst).Word(uint64(x))
	case Var:
		return m.Word(tagVar).Str(x.Name)
	case Bin:
		return mixExpr(mixExpr(m.Word(tagBin).Word(uint64(x.Op)), x.A), x.B)
	case Not:
		return mixExpr(m.Word(tagNot), x.A)
	}
	return m.Word(tagOther).Str(e.String())
}
