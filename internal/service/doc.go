// Package service is the checking-as-a-service layer: a long-running,
// zero-dependency HTTP/JSON server that accepts declarative scenario
// submissions (scenarios.WireSpec payloads or named registry entries),
// schedules them onto a bounded worker pool under per-tenant
// state/transition drawdown budgets, streams violations-as-found and
// progress snapshots to any number of concurrent clients as NDJSON or
// SSE, and persists replayable violation traces plus telemetry
// snapshots as content-addressed artifacts on disk.
//
// The package sits above internal/core and the public modelling SDK
// but below the root facade: nice.Serve and `nice serve` wrap
// Server, and `nice -server`, `nice watch` and `nice replay` are its
// clients. JobRequest is the one search request of every door: the
// wire body, the `nice` flags (Flags) and nice.RunRequest's argument,
// resolved in one place (Resolve). See docs/SERVICE.md for the wire
// protocol.
package service
