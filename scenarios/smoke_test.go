package scenarios

import (
	"strings"
	"testing"

	"github.com/nice-go/nice/internal/core"
)

func TestSmokePingPong1(t *testing.T) {
	cfg := MustLookup("pingpong").Config(1)
	report := core.NewChecker(cfg).Run()
	t.Logf("pings=1: transitions=%d unique=%d elapsed=%v violations=%d",
		report.Transitions, report.UniqueStates, report.Elapsed, len(report.Violations))
	if report.Transitions == 0 {
		t.Fatal("no transitions explored")
	}
}

func TestSmokeAllBugs(t *testing.T) {
	for _, sc := range Table2() {
		sc := sc
		t.Run(strings.ToUpper(sc.Name), func(t *testing.T) {
			report := core.NewChecker(sc.Config(0)).Run()
			t.Logf("%s: transitions=%d unique=%d violations=%d elapsed=%v",
				sc.Name, report.Transitions, report.UniqueStates, len(report.Violations), report.Elapsed)
			v := report.FirstViolation()
			if v == nil {
				t.Fatalf("%s not found", sc.Name)
			}
			t.Logf("violation: %s: %v (trace %d steps)", v.Property, v.Err, len(v.Trace))
			if v.Property != sc.ExpectedProperty {
				t.Fatalf("wrong property: got %s want %s", v.Property, sc.ExpectedProperty)
			}
		})
	}
}

func TestSmokeBugII(t *testing.T) {
	cfg := MustLookup("bug-ii").Config(0)
	report := core.NewChecker(cfg).Run()
	t.Logf("BUG-II: transitions=%d unique=%d violations=%d elapsed=%v",
		report.Transitions, report.UniqueStates, len(report.Violations), report.Elapsed)
	v := report.FirstViolation()
	if v == nil {
		t.Fatal("BUG-II not found")
	}
	t.Logf("violation:\n%s", v)
	if v.Property != "StrictDirectPaths" {
		t.Fatalf("wrong property: %s", v.Property)
	}
}
