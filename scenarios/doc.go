// Package scenarios wires up the checking configurations of the paper's
// evaluation: the layer-2 ping workload of §7 (Table 1, Figure 6), the
// eleven bug scenarios of §8 (Table 2), scaled bench workloads, and
// generator-backed workloads on parameterized topologies
// (generated.go), exposed through a named scenario registry
// (registry.go) that cmd/nice, the benchmark, the tests and the
// examples all consume — a new topology or workload registers in exactly
// one place.
//
// Every scenario is one declarative Spec (spec.go), compiled and
// registered by RegisterSpec: the paper's built-ins are Spec rows in
// registry.go, and external modules and wire submissions (wire.go) use
// the same shape. A Scenario is what a Spec compiles to, and
// Scenario.Apply is the one rule that turns a Table 2 strategy column
// into configuration.
package scenarios
