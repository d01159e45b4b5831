// Command benchmark is the repository's one benchmark: seven named
// workloads that drive the checker through its public entry points
// (nice.Run, nice.Campaign, nice.Serve, the scenario registry and the
// exported methods of internal/core, internal/canon and openflow),
// measured end to end without tracing and then, in a separate traced
// run, attributed to layers by spans recorded from this package's own
// files — the program under test carries no benchmark code.
//
// One run measures one workload:
//
//	go run ./benchmark -workload pyswitch-full-dfs -seed 1 -seconds 10 -trace 0
//
// prints every metric by name with its unit, checks every verdict
// against the pins in expected.json, and ends with one JSON line
// {"correct", "attempted", "failed", "metrics"}. With -trace 1 the
// metrics are the per-layer ones and trace-<workload>.json is written
// under -out. Without -workload the command runs every workload, each
// in its own child process (so set-up time and peak RSS are per
// workload), untraced then traced, and writes result.json under -out;
// -compare A.json B.json prints the verdict table two such results
// give. BENCHMARK.json at the repository root names the workloads and
// metrics; README.md in this directory explains each of them.
package main
