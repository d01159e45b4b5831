package core

import "sync/atomic"

// Budget bounds a search's unique states and transitions; a zero (or
// negative) bound is no bound.
type Budget struct{ States, Transitions int64 }

// Min is the tighter of two budgets, bound by bound; "no bound" comes
// out as zero.
func (b Budget) Min(o Budget) Budget {
	tighter := func(x, y int64) int64 {
		switch {
		case y <= 0:
			return max(x, 0)
		case x <= 0 || y < x:
			return y
		}
		return x
	}
	return Budget{tighter(b.States, o.States), tighter(b.Transitions, o.Transitions)}
}

// Drawdown is a budget shared by a series of searches — a Campaign's
// jobs, a service tenant's jobs. Every finished search is charged to it
// and later ones run under whatever remains; concurrent searches may
// collectively overshoot by what each was granted. A search that finds
// the pool exhausted, or that stops on a bound the pool rather than its
// own allowance set, is starved: undecided because earlier searches
// consumed the shared budget, not because of its own limits.
type Drawdown struct {
	total                 Budget // which bounds exist at all
	statesLeft, transLeft atomic.Int64
}

// NewDrawdown opens a pool; a zero bound in total leaves that side
// unbounded.
func NewDrawdown(total Budget) *Drawdown {
	d := &Drawdown{total: total}
	d.statesLeft.Store(total.States)
	d.transLeft.Store(total.Transitions)
	return d
}

// Left is what remains of each side. An unbounded side starts at zero
// and only falls, so it always reads as "no bound" to Budget.Min.
func (d *Drawdown) Left() Budget {
	return Budget{d.statesLeft.Load(), d.transLeft.Load()}
}

// Exhausted reports whether a bounded side has nothing left.
func (d *Drawdown) Exhausted() bool {
	left := d.Left()
	return (d.total.States > 0 && left.States <= 0) ||
		(d.total.Transitions > 0 && left.Transitions <= 0)
}

// Claim is the budget one search runs under, as Clamp granted it.
type Claim struct {
	Budget
	// poolStates / poolTrans: the pool's remainder, not the search's own
	// ask, is the binding bound on that side.
	poolStates, poolTrans bool
}

// Clamp tightens a search's own budget to what the pool has left.
func (d *Drawdown) Clamp(own Budget) Claim {
	c := Claim{Budget: own.Min(d.Left())}
	c.poolStates = c.States != own.States
	c.poolTrans = c.Transitions != own.Transitions
	return c
}

// Draw charges a finished search to the pool and reports whether it
// starved: it stopped on a bound that came from the pool.
func (d *Drawdown) Draw(c Claim, r *Report) (starved bool) {
	d.statesLeft.Add(-r.UniqueStates)
	d.transLeft.Add(-r.Transitions)
	return (c.poolStates && r.StopReason == StopMaxStates) ||
		(c.poolTrans && r.StopReason == StopMaxTransitions)
}
