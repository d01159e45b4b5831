//go:build race

package core

// raceEnabled reports whether the race detector is on: it makes
// sync.Pool drop a share of what is put back, so allocation budgets
// measured against the pooled COW buffers do not hold under it.
const raceEnabled = true
