package energyte

import (
	"fmt"

	"github.com/nice-go/nice/internal/canon"
)

// OracleStateKey is the rendering StateKey replaced, kept as the oracle
// TestStateKeyPartition compares it with.
func (a *App) OracleStateKey() string {
	return fmt.Sprintf("high=%t table=%v n=%d polls=%d flows=%s pend=%s",
		a.high, a.globalTable, a.flowCount, a.pollsLeft,
		canon.String(a.flows.Read()), canon.String(a.pending.View()))
}
