package service

import "time"

// SetStreamWriteTimeout shortens the stall a stream client is allowed
// and returns the call that restores it.
func SetStreamWriteTimeout(d time.Duration) (restore func()) {
	old := streamWriteTimeout
	streamWriteTimeout = d
	return func() { streamWriteTimeout = old }
}

// KeepBodies is how many finished jobs a server without an artifact
// store keeps unsealed.
const KeepBodies = keepBodies
