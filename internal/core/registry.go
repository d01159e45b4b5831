package core

import "strings"

// ReductionSpec names one interleaving-reduction layer: the name
// front ends select it by, a one-line summary for usage text, and the
// layer.
type ReductionSpec struct {
	Name      string
	Summary   string
	Reduction Reduction
}

// ReductionSpecs enumerates the interleaving-reduction layers in
// selection order.
func ReductionSpecs() []ReductionSpec {
	return []ReductionSpec{
		{Name: "none", Summary: "explore every enabled transition (the paper's semantics)", Reduction: ReductionNone},
		{Name: "dpor", Summary: "dynamic partial-order reduction: the persistent-set DPOR DFS", Reduction: ReductionDPOR},
	}
}

// ParseReduction resolves a reduction layer from its CLI spelling
// ("" = none, case-insensitive). The boolean reports whether the name
// was recognized.
func ParseReduction(name string) (Reduction, bool) {
	if name == "" {
		return ReductionNone, true
	}
	for _, spec := range ReductionSpecs() {
		if strings.EqualFold(name, spec.Name) {
			return spec.Reduction, true
		}
	}
	return ReductionNone, false
}
