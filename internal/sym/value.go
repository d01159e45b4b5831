package sym

import "fmt"

// Value is a concolic integer: the concrete value the current execution
// uses, plus (when the input is symbolic) the expression that produced
// it. Controller handlers compute over Values exactly as they would over
// plain integers; the expression rides along invisibly.
type Value struct {
	C uint64
	E Expr // nil for pure concrete values
}

// Concrete wraps a plain integer.
func Concrete(v uint64) Value { return Value{C: v} }

// Symbolic builds a variable-backed value with the given concrete
// instantiation.
func Symbolic(name string, bits int, concrete uint64) Value {
	return Value{C: concrete, E: Var{Name: name, Bits: bits}}
}

// IsSymbolic reports whether the value carries an expression.
func (v Value) IsSymbolic() bool { return v.E != nil }

func (v Value) expr() Expr {
	if v.E != nil {
		return v.E
	}
	return Const(v.C)
}

func lift(op BinOp, a, b Value, c uint64) Value {
	out := Value{C: c}
	if a.E != nil || b.E != nil {
		out.E = Bin{Op: op, A: a.expr(), B: b.expr()}
	}
	return out
}

func liftBool(op BinOp, a, b Value, c bool) Bool {
	out := Bool{C: c}
	if a.E != nil || b.E != nil {
		out.E = Bin{Op: op, A: a.expr(), B: b.expr()}
	}
	return out
}

// And is bitwise and (the Figure 3 idiom pkt.src[0] & 1 uses Byte + And).
func (v Value) And(o Value) Value { return lift(OpAnd, v, o, v.C&o.C) }

// Or is bitwise or.
func (v Value) Or(o Value) Value { return lift(OpOr, v, o, v.C|o.C) }

// Xor is bitwise xor.
func (v Value) Xor(o Value) Value { return lift(OpXor, v, o, v.C^o.C) }

// Add is wrapping addition.
func (v Value) Add(o Value) Value { return lift(OpAdd, v, o, v.C+o.C) }

// Sub is wrapping subtraction.
func (v Value) Sub(o Value) Value { return lift(OpSub, v, o, v.C-o.C) }

// Shr is a logical right shift by a concrete amount.
func (v Value) Shr(bits uint) Value {
	return lift(OpShr, v, Concrete(uint64(bits)), v.C>>bits)
}

// Byte extracts octet i of a big-endian value occupying width bytes
// (Byte(0, 6) of a MAC is the first octet on the wire). This is the
// byte-level access the paper's symbolic packets keep available on
// field-level variables (§3.2).
func (v Value) Byte(i, width int) Value {
	if i < 0 || i >= width {
		panic(fmt.Sprintf("sym: Byte(%d) out of range for width %d", i, width))
	}
	shift := uint((width - 1 - i) * 8)
	return v.Shr(shift).And(Concrete(0xff))
}

// Eq / Ne / Lt / Le / Gt / Ge are unsigned comparisons producing Bools.
func (v Value) Eq(o Value) Bool { return liftBool(OpEq, v, o, v.C == o.C) }

// Ne is "not equal".
func (v Value) Ne(o Value) Bool { return liftBool(OpNe, v, o, v.C != o.C) }

// Lt is unsigned "less than".
func (v Value) Lt(o Value) Bool { return liftBool(OpLt, v, o, v.C < o.C) }

// Le is unsigned "less than or equal".
func (v Value) Le(o Value) Bool { return liftBool(OpLe, v, o, v.C <= o.C) }

// Gt is unsigned "greater than".
func (v Value) Gt(o Value) Bool { return liftBool(OpGt, v, o, v.C > o.C) }

// Ge is unsigned "greater than or equal".
func (v Value) Ge(o Value) Bool { return liftBool(OpGe, v, o, v.C >= o.C) }

// EqConst compares against a literal.
func (v Value) EqConst(c uint64) Bool { return v.Eq(Concrete(c)) }

// NeConst compares against a literal.
func (v Value) NeConst(c uint64) Bool { return v.Ne(Concrete(c)) }

func (v Value) String() string {
	if v.E == nil {
		return fmt.Sprintf("%d", v.C)
	}
	return fmt.Sprintf("%d⟨%s⟩", v.C, v.E)
}

// Bool is a concolic boolean: concrete truth plus optional expression.
type Bool struct {
	C bool
	E Expr // nil when the condition involved no symbolic input
}

// IsSymbolic reports whether the condition mentions symbolic input.
func (b Bool) IsSymbolic() bool { return b.E != nil }

func (b Bool) expr() Expr {
	if b.E != nil {
		return b.E
	}
	return Const(b01(b.C))
}

// Not negates the condition.
func (b Bool) Not() Bool {
	out := Bool{C: !b.C}
	if b.E != nil {
		out.E = Not{A: b.E}
	}
	return out
}

// And conjoins two conditions.
func (b Bool) And(o Bool) Bool {
	out := Bool{C: b.C && o.C}
	if b.E != nil || o.E != nil {
		out.E = Bin{Op: OpLAnd, A: b.expr(), B: o.expr()}
	}
	return out
}

// Or disjoins two conditions.
func (b Bool) Or(o Bool) Bool {
	out := Bool{C: b.C || o.C}
	if b.E != nil || o.E != nil {
		out.E = Bin{Op: OpLOr, A: b.expr(), B: o.expr()}
	}
	return out
}

func (b Bool) String() string {
	if b.E == nil {
		return fmt.Sprintf("%t", b.C)
	}
	return fmt.Sprintf("%t⟨%s⟩", b.C, b.E)
}
