// Package pyswitch is the MAC-learning switch application of the paper's
// Figure 3 — a faithful port of the NOX pyswitch pseudo-code. The
// default (buggy) variant reproduces the three published defects:
//
//	BUG-I   host unreachable after moving (NoBlackHoles)
//	BUG-II  delayed direct path (StrictDirectPaths)
//	BUG-III excess flooding on cyclic topologies (NoForwardingLoops)
//
// The Fixed variant applies the paper's remedies: hard timeouts on
// learned rules (I), ordered installation of both directions' rules
// before releasing the triggering packet (II), and spanning-tree
// flooding (III).
//
// Figure 3's ctrl_state[sw_id][mac] = port is a map of per-switch
// tables, and a stored table is never written: a learn or a port-down
// stores a new copy of the one table it changes. A clone therefore
// copies the outer map on its first write plus that one table, not
// every switch's. The Fixed variant's spanning-tree flood lists, one
// per switch and in-port, are built once in New and shared by every
// message.
package pyswitch
