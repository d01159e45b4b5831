package core

import (
	"sort"
	"strings"
	"sync"
)

// EngineSpec describes one registered search engine: the stable name
// front ends select it by (Report.Strategy uses the same string), a
// one-line summary for usage text, and a factory. The registry is the
// single source of truth the CLI flag help, the service wire validation
// and the facade all enumerate, so a new engine registers in exactly
// one place.
type EngineSpec struct {
	Name    string
	Summary string
	New     func() Engine
}

// ReductionSpec names one interleaving-reduction layer for the same
// single-source-of-truth enumeration.
type ReductionSpec struct {
	Name      string
	Summary   string
	Reduction Reduction
}

var engineRegistry struct {
	mu     sync.RWMutex
	order  []string
	byName map[string]EngineSpec
}

// RegisterEngine adds an engine to the registry. It panics on an empty
// or duplicate name or a nil factory — registration is init-time
// wiring, and a bad entry should fail loudly.
func RegisterEngine(spec EngineSpec) {
	if spec.Name == "" {
		panic("core: RegisterEngine with empty Name")
	}
	if spec.New == nil {
		panic("core: RegisterEngine " + spec.Name + " with nil factory")
	}
	key := strings.ToLower(spec.Name)
	engineRegistry.mu.Lock()
	defer engineRegistry.mu.Unlock()
	if engineRegistry.byName == nil {
		engineRegistry.byName = make(map[string]EngineSpec)
	}
	if _, dup := engineRegistry.byName[key]; dup {
		panic("core: duplicate engine " + spec.Name)
	}
	engineRegistry.byName[key] = spec
	engineRegistry.order = append(engineRegistry.order, key)
}

// LookupEngine resolves a registered engine by name, case-insensitively.
func LookupEngine(name string) (EngineSpec, bool) {
	engineRegistry.mu.RLock()
	defer engineRegistry.mu.RUnlock()
	s, ok := engineRegistry.byName[strings.ToLower(name)]
	return s, ok
}

// EngineSpecs returns every registered engine sorted by name (a stable
// order for usage text and wire errors, independent of package-init
// order).
func EngineSpecs() []EngineSpec {
	engineRegistry.mu.RLock()
	defer engineRegistry.mu.RUnlock()
	out := make([]EngineSpec, 0, len(engineRegistry.order))
	for _, key := range engineRegistry.order {
		out = append(out, engineRegistry.byName[key])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// EngineNames returns the registered engine names, sorted.
func EngineNames() []string {
	specs := EngineSpecs()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// ReductionSpecs enumerates the interleaving-reduction layers in
// selection order.
func ReductionSpecs() []ReductionSpec {
	return []ReductionSpec{
		{Name: "none", Summary: "explore every enabled transition (the paper's semantics)", Reduction: ReductionNone},
		{Name: "dpor", Summary: "dynamic partial-order reduction (sleep/persistent sets)", Reduction: ReductionDPOR},
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

func init() {
	RegisterEngine(EngineSpec{
		Name:    "dfs",
		Summary: "sequential depth-first reference search (Figure 5)",
		New:     DFS,
	})
}
