// Package nice is a from-scratch Go implementation of NICE — the
// combination of explicit-state model checking and concolic (symbolic)
// execution for testing OpenFlow controller programs introduced by
// "A NICE Way to Test OpenFlow Applications" (Canini, Venzano, Perešíni,
// Kostić, Rexford — NSDI 2012).
//
// Given a controller application, a network topology, and a set of
// correctness properties, NICE systematically explores the state space
// of the whole system — controller, switches and end hosts — and reports
// property violations together with transition traces that reproduce
// them deterministically:
//
//	topo, aID, bID := nice.SingleSwitch()
//	cfg := &nice.Config{
//		Topo: topo,
//		App:  pyswitch.New(pyswitch.Buggy, topo),
//		Hosts: []*nice.Host{
//			nice.NewClient(topo.Host(aID), 2, 0, ping),
//			nice.NewServer(topo.Host(bID), nice.EchoReply, 1),
//		},
//		Properties:           []nice.Property{nice.NewStrictDirectPaths()},
//		StopAtFirstViolation: true,
//	}
//	report := nice.Run(context.Background(), cfg)
//	if v := report.FirstViolation(); v != nil {
//		fmt.Println(v) // property, cause, replayable trace
//	}
//
// Run is the single entry point for every exploration mode: the
// sequential depth-first search (default), the parallel engine
// (WithWorkers), random walks and seeded swarms
// (WithWalks), with wall-clock/state/transition budgets (WithDeadline,
// WithMaxStates, WithMaxTransitions), context cancellation, and
// streaming results (WithObserver) — see run.go.
//
// The building blocks live in public subpackages — openflow, topo,
// controller, hosts, props, apps/{pyswitch,loadbalancer,energyte} and
// scenarios — and this package re-exposes them as documented aliases,
// so either import style works and the two never diverge (an alias *is*
// the subpackage type, not a copy; see README "Package layout" for the
// compatibility guarantee):
//
//   - the system model: switches, packets, matches, flow tables
//     (openflow types), topologies (Topology), and end hosts (Host);
//   - the checker: Config, ReplayWithProperties, Report, Violation, Simulator,
//     RandomWalks, and the search strategies of the paper's §4
//     (PKT-SEQ bounds on hosts, Config.NoDelay, Config.Unusual,
//     Config.FlowGroupKey);
//   - the property library of §5: NoForwardingLoops, NoBlackHoles,
//     DirectPaths, StrictDirectPaths, NoForgottenPackets, plus the
//     application-specific FlowAffinity and UseCorrectRoutingTable;
//   - the three case-study applications of §8 under
//     apps/{pyswitch,loadbalancer,energyte}, each in its
//     published (buggy) and repaired variants.
//
// Controller applications implement the App interface: event handlers
// (PacketIn, SwitchJoin, StatsReply, …) that act on switches through the
// Context actuator. Handlers route packet-dependent branch conditions
// through Context.If and the sym.Lookup* map stubs; this single
// convention is what lets discover_packets and discover_stats run the
// same handler code concolically to find the relevant inputs (the
// paper's §3 contribution).
package nice
