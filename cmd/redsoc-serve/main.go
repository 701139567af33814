// Command redsoc-serve is the long-running, multi-tenant campaign service:
// an HTTP/JSON API over the same deterministic evaluation engine the batch
// CLIs drive, backed by a content-addressed result cache so every repeated
// cell — across jobs, tenants and restarts — is served verified from disk
// instead of re-simulated.
//
// Usage:
//
//	redsoc-serve -journal DIR [-addr :8347] [-max-jobs 2] [-j N]
//
// API (tenant from the X-Tenant header; "anonymous" when absent):
//
//	POST /v1/jobs              submit {"type":"grid","scale":"quick",...}
//	GET  /v1/jobs              list jobs
//	GET  /v1/jobs/{id}         job status (cells done, cache hits/misses)
//	GET  /v1/jobs/{id}/report  finished report, byte-identical to the batch
//	                           CLI's (modulo wall_seconds)
//	GET  /v1/jobs/{id}/events  NDJSON progress stream (?sse=1 for SSE)
//	GET  /v1/stats             queue depth, running campaigns, cache counters
//	GET  /healthz              liveness
//
// Example:
//
//	curl -s -X POST -H 'X-Tenant: alice' -d '{"scale":"quick"}' \
//	     localhost:8347/v1/jobs
//	curl -s localhost:8347/v1/jobs/j000001
//	curl -sN localhost:8347/v1/jobs/j000001/events
//	curl -s localhost:8347/v1/jobs/j000001/report
//
// Submitting the same spec twice costs zero simulations the second time:
// the simulator's strict determinism (the -j 1 ≡ -j N, resume and shard
// equivalence gates) makes every cached cell provably exact.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"time"

	"redsoc/internal/serve"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a stalled or slow-drip connection cannot hold a server
// goroutine open indefinitely.
const readHeaderTimeout = 10 * time.Second

func main() {
	log.SetFlags(0)
	log.SetPrefix("redsoc-serve: ")
	addr := flag.String("addr", ":8347", "HTTP listen address")
	journal := flag.String("journal", "", "content-addressed result cache directory (required)")
	maxJobs := flag.Int("max-jobs", 2, "campaigns running concurrently; queued jobs wait their per-tenant turn")
	workers := flag.Int("j", 0, "cap on per-campaign workers (0 = uncapped; jobs default to all CPUs)")
	flag.Parse()
	if *journal == "" {
		log.Fatal("-journal DIR is required — the cache is the service")
	}

	srv, err := serve.New(serve.Config{Journal: *journal, MaxConcurrent: *maxJobs, Workers: *workers})
	if err != nil {
		log.Fatal(err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("listening on %s (journal %s, %d concurrent campaigns)", *addr, *journal, *maxJobs)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	select {
	case <-ctx.Done():
		log.Print("shutting down")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Print(err)
		}
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(shutdownCtx)
	if err := srv.Close(); err != nil {
		log.Print(err)
	}
}
