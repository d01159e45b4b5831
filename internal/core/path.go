package core

import "slices"

// PathNode is one link of the parent-pointer chain that reached a
// frontier state (nil = the root). Siblings share their prefix through
// one pointer; a replayable trace is materialized only for a violation.
type PathNode struct {
	t      Transition
	parent *PathNode
	depth  int
}

// Child extends the path by one transition.
func (n *PathNode) Child(t Transition) *PathNode {
	return &PathNode{t: t, parent: n, depth: n.Depth() + 1}
}

// Depth is the trace length the node represents.
func (n *PathNode) Depth() int {
	if n == nil {
		return 0
	}
	return n.depth
}

// AppendTrace appends the replayable transition sequence root→node to
// dst: an engine that records violations builds each trace in one
// reused buffer, and Session.Record copies only a trace it keeps.
func (n *PathNode) AppendTrace(dst []Transition) []Transition {
	start := len(dst)
	dst = slices.Grow(dst, n.Depth())[:start+n.Depth()]
	for cur := n; cur != nil; cur = cur.parent {
		dst[start+cur.depth-1] = cur.t
	}
	return dst
}
