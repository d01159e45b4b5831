// Streaming example: watch a search as it runs.
//
// nice.Run streams results through the Observer interface: every
// violation the moment it is found, and periodic progress snapshots
// (states/sec, frontier size, search depth). Combined with a wall-clock
// budget, that turns the checker into a time-boxed bug hunt: explore as
// much as the budget allows, report whatever was found, and keep the
// partial report replayable.
//
// This example runs the scaled pyswitch workload (BUG-II's scenario
// without the early stop, so the whole state space is on the table)
// under a one-second deadline, printing a progress line every 100ms and
// each violation as it streams in. It then replays the first recorded
// trace to show partial reports reproduce deterministically.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/nice-go/nice"
	"github.com/nice-go/nice/apps/pyswitch"
)

func main() {
	topology, aID, bID := nice.SingleSwitch()
	a := topology.Host(aID)
	b := topology.Host(bID)

	ping := nice.Header{
		EthSrc: a.MAC, EthDst: b.MAC, EthType: nice.EthTypeIPv4,
		IPSrc: a.IP, IPDst: b.IP, Payload: "ping",
	}
	build := func() *nice.Config {
		return &nice.Config{
			Topo: topology,
			App:  pyswitch.New(pyswitch.Buggy, topology),
			Hosts: []*nice.Host{
				nice.NewClient(a, 3, 0, ping), // three sends: ~10k states
				nice.NewServer(b, nice.EchoReply, 1),
			},
			Properties: []nice.Property{nice.NewStrictDirectPaths()},
			// No early stop: keep searching past the first violation.
		}
	}

	observer := nice.ObserverFuncs{
		Violation: func(v nice.Violation) {
			fmt.Printf("  !! found %s after a %d-step trace\n", v.Property, len(v.Trace))
		},
		Progress: func(p nice.Progress) {
			marker := "  .."
			if p.Final {
				marker = "  =="
			}
			fmt.Printf("%s %6.2fs  %7d transitions  %7d states (%6.0f/s)  frontier %d, depth %d\n",
				marker, p.Elapsed.Seconds(), p.Transitions, p.UniqueStates,
				p.StatesPerSec, p.Frontier, p.Depth)
		},
	}

	fmt.Println("searching the buggy pyswitch state space (1s budget)...")
	report := nice.Run(context.Background(), build(),
		nice.WithObserver(observer),
		nice.WithProgressEvery(100*time.Millisecond),
		nice.WithDeadline(time.Second),
	)

	fmt.Printf("\nengine %s: %d transitions, %d unique states in %v\n",
		report.Strategy, report.Transitions, report.UniqueStates, report.Elapsed)
	if report.Complete {
		fmt.Println("search complete — the whole bounded state space was explored")
	} else {
		fmt.Printf("search stopped early (%s) — a partial but replayable result\n", report.StopReason)
	}

	v := report.FirstViolation()
	if v == nil {
		fmt.Println("no violation recorded before the budget ran out")
		os.Exit(3)
	}

	// Partial or not, every recorded trace replays deterministically.
	if reproduced := nice.ReplayWithProperties(build(), v.Trace); reproduced != nil {
		fmt.Printf("replayed the first trace: %s reproduced ✓\n", reproduced.Property)
	}
}
