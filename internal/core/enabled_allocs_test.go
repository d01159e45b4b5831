//go:build !race

package core_test

import (
	"testing"

	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/scenarios"
)

// TestEnabledIntoAllocs: listing the transitions of a state whose
// switches hold queued packets allocates nothing on a warm buffer, for
// the batched process_pkt and the per-port micro-step alike: the
// pending-port scan reads the channels in place. Like the other
// allocation budgets, the fence is off under -race.
func TestEnabledIntoAllocs(t *testing.T) {
	for _, micro := range []bool{false, true} {
		cfg := scenarios.MustLookup("pyswitch-bench").Config(3)
		cfg.MicroSteps = micro
		sys := core.NewSystem(cfg)
		sys.ArmDiscover()
		sends := 0
		for sends < 2 {
			sent := false
			for _, tr := range sys.Enabled() {
				if tr.Kind == core.THostSend {
					sys.Apply(tr)
					sends++
					sent = true
					break
				}
			}
			if !sent {
				t.Fatalf("micro=%v: no host send after %d sends", micro, sends)
			}
		}
		buf := sys.EnabledInto(nil)
		process := 0
		for _, tr := range buf {
			if tr.Kind == core.TSwitchProcess || tr.Kind == core.TSwitchProcessPort {
				process++
			}
		}
		if process == 0 {
			t.Fatalf("micro=%v: no switch holds a packet after two sends", micro)
		}
		if n := testing.AllocsPerRun(100, func() { buf = sys.EnabledInto(buf) }); n != 0 {
			t.Errorf("micro=%v: EnabledInto with %d process transitions allocates %.1f objects, want 0",
				micro, process, n)
		}
	}
}
