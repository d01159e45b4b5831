// The serve subcommand runs the NICE checking service: a long-running
// HTTP server that accepts scenario submissions (named registry
// entries or inline declarative specs), schedules them onto a bounded
// worker pool under per-tenant budgets, streams violations and
// progress as NDJSON/SSE, and persists replayable violation traces as
// content-addressed artifacts.
//
//	nice serve -addr :8080 -artifacts /var/lib/nice
//	nice serve -workers 4 -tenant-states 1000000 -cache-capacity 8192
//
// Submit and watch jobs with `nice submit` / `nice watch`, or raw:
//
//	curl -XPOST localhost:8080/v1/jobs -d '{"scenario":"bug-ii"}'
//	curl localhost:8080/v1/jobs/j1/stream
//
// See docs/SERVICE.md for the full API.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/nice-go/nice"
)

// serve runs the service until ctx is canceled (Ctrl-C), then shuts
// down gracefully.
func serve(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("nice serve", flag.ExitOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		workers   = fs.Int("workers", 2, "concurrently running jobs")
		queue     = fs.Int("queue", 64, "queued-job limit (excess submissions get 429)")
		artifacts = fs.String("artifacts", "", "artifact directory (empty = no persistence)")
		cacheCap  = fs.Int("cache-capacity", 4096, "shared discover-memo LRU bound in entries (-1 = unbounded)")
		tenantS   = fs.Int64("tenant-states", 0, "per-tenant unique-state drawdown budget (0 = unbounded)")
		tenantT   = fs.Int64("tenant-transitions", 0, "per-tenant transition drawdown budget (0 = unbounded)")
		jobTime   = fs.Duration("job-timeout", 0, "per-job wall-clock cap (0 = uncapped)")
		jobStates = fs.Int64("job-max-states", 0, "per-job unique-state cap (0 = uncapped)")
	)
	fs.Parse(args)

	ready := make(chan string, 1)
	go func() {
		if a, ok := <-ready; ok {
			fmt.Fprintf(os.Stderr, "nice serve: listening on %s\n", a)
		}
	}()
	err := nice.Serve(ctx, *addr, nice.ServiceOptions{
		Workers:              *workers,
		QueueLimit:           *queue,
		ArtifactDir:          *artifacts,
		CacheCapacity:        *cacheCap,
		TenantMaxStates:      *tenantS,
		TenantMaxTransitions: *tenantT,
		JobTimeout:           *jobTime,
		JobMaxStates:         *jobStates,
		ProgressEvery:        500 * time.Millisecond,
	}, ready)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nice serve:", err)
		os.Exit(1)
	}
}
