// Quickstart: find BUG-II of the paper — the MAC-learning switch's
// "delayed direct path" — in about thirty lines.
//
// Host A pings host B through one switch; B echoes. The published
// pyswitch installs a forwarding rule for only one direction, so after
// both hosts have exchanged traffic, A's next packet still detours to
// the controller — a StrictDirectPaths violation. NICE finds it and
// prints a minimal transition trace that reproduces it.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"os"

	"github.com/nice-go/nice"
	"github.com/nice-go/nice/apps/pyswitch"
)

func main() {
	topology, aID, bID := nice.SingleSwitch()
	a := topology.Host(aID)
	b := topology.Host(bID)

	ping := nice.Header{
		EthSrc: a.MAC, EthDst: b.MAC, EthType: 0x0800,
		IPSrc: a.IP, IPDst: b.IP, Payload: "ping",
	}

	cfg := &nice.Config{
		Topo: topology,
		App:  pyswitch.New(pyswitch.Buggy, topology),
		Hosts: []*nice.Host{
			nice.NewClient(a, 2, 0, ping),        // two sends, discovered symbolically
			nice.NewServer(b, nice.EchoReply, 1), // echoes the first ping
		},
		Properties:           []nice.Property{nice.NewStrictDirectPaths()},
		StopAtFirstViolation: true,
	}

	report := nice.Run(context.Background(), cfg)
	fmt.Printf("explored %d transitions, %d unique states, %d concolic runs in %v\n",
		report.Transitions, report.UniqueStates, report.SERuns, report.Elapsed)

	v := report.FirstViolation()
	if v == nil {
		fmt.Println("no violation found — is this the fixed app?")
		os.Exit(1)
	}
	fmt.Println()
	fmt.Print(v)

	// The trace replays deterministically.
	if reproduced := nice.ReplayWithProperties(cfg, v.Trace); reproduced != nil {
		fmt.Println("\nreplayed the trace: violation reproduced ✓")
	}

	// The repaired application is clean under the same search.
	cfg.App = pyswitch.New(pyswitch.Fixed, topology)
	if fixed := nice.Run(context.Background(), cfg); fixed.FirstViolation() == nil {
		fmt.Printf("fixed pyswitch: clean over %d transitions ✓\n", fixed.Transitions)
	}
}
