// Package scenarios wires up the checking configurations of the paper's
// evaluation: the layer-2 ping workload of §7 (Table 1, Figure 6), the
// eleven bug scenarios of §8 (Table 2), scaled bench workloads, and
// generator-backed workloads on parameterized topologies
// (generated.go), exposed through a named scenario registry
// (registry.go) that cmd/nice, the benchmark, the tests and the
// examples all consume — a new topology or workload registers in exactly
// one place.
//
// External modules can register their own workloads: build one
// declarative Spec literal (spec.go) and RegisterSpec it, and every
// front end — including `nice run-all` campaigns — picks it up.
package scenarios
