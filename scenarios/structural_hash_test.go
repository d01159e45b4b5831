package scenarios_test

import (
	"math/rand"
	"testing"

	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/scenarios"
)

// TestFingerprintGolden pins the structural fingerprint of one registry
// scenario's initial state. The mixer has fixed constants and no
// per-process seed, so the digest must be the same in every process and
// on every platform — trace artifacts and pinned state counts recorded
// by one run depend on it. A deliberate change to what a component
// hashes moves this value; update it in the same change.
func TestFingerprintGolden(t *testing.T) {
	sys := core.NewSystem(scenarios.MustLookup("pyswitch-bench").Config(0))
	const want = "98031716b7ad27d8dfe3e5b81b83d407"
	if got := sys.Fingerprint().Hex(); got != want {
		t.Errorf("initial pyswitch-bench fingerprint = %s, want %s", got, want)
	}
}

// TestFingerprintAgreesWithOracleKey walks random executions of the
// three application families and checks, state by state, that the
// structural fingerprint and the from-scratch string serialization
// agree on which states are equal: one fingerprint per oracle key, one
// oracle key per fingerprint. (The WithOracleHash parity suites assert the
// same through search counts; this names the two states on failure.)
func TestFingerprintAgreesWithOracleKey(t *testing.T) {
	for _, name := range []string{"pyswitch-bench", "loadbalancer-bench", "bug-x", "bug-i"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := scenarios.MustLookup(name).Config(0)
			byKey := make(map[string]canon.Digest)
			byPrint := make(map[canon.Digest]string)
			rng := rand.New(rand.NewSource(3))
			for walk := 0; walk < 30; walk++ {
				sys := core.NewSystem(cfg)
				for step := 0; step < 40; step++ {
					key, fp := sys.OracleKey(), sys.Fingerprint()
					if prev, ok := byKey[key]; ok && prev != fp {
						t.Fatalf("walk %d step %d: one state, two fingerprints:\n%s", walk, step, key)
					}
					if prev, ok := byPrint[fp]; ok && prev != key {
						t.Fatalf("walk %d step %d: one fingerprint, two states:\n%s\n--\n%s", walk, step, prev, key)
					}
					byKey[key], byPrint[fp] = fp, key
					enabled := sys.Enabled()
					if len(enabled) == 0 {
						break
					}
					sys = sys.Clone()
					sys.Apply(enabled[rng.Intn(len(enabled))])
				}
			}
		})
	}
}
