package core

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

// Trace materializes the replayable transition sequence root→node.
func (n *PathNode) Trace() []Transition {
	if n == nil {
		return nil
	}
	return n.parent.TraceWith(n.t)
}

// TraceWith materializes the node's trace extended by one transition.
func (n *PathNode) TraceWith(t Transition) []Transition {
	out := make([]Transition, n.Depth()+1)
	out[len(out)-1] = t
	for cur := n; cur != nil; cur = cur.parent {
		out[cur.depth-1] = cur.t
	}
	return out
}
