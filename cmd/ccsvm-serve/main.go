// ccsvm-serve is the long-running sweep service: an HTTP front end over the
// simulator with a content-addressed result cache and request coalescing
// (see internal/sweepd and ARCHITECTURE.md, "Serving & caching").
//
// Usage:
//
//	ccsvm-serve [-addr :8344] [-cache-dir DIR] [-cache-entries N]
//	            [-parallel N] [-queue N]
//
//	curl -s localhost:8344/healthz
//	curl -s -X POST localhost:8344/run -d '{"workload":"matmul","system":"ccsvm"}'
//	curl -s -X POST localhost:8344/sweep -d '{"specs":[
//	  {"workload":"matmul","system":"ccsvm"},
//	  {"workload":"matmul","preset":"apu-base","system":"opencl"}]}'
//	curl -s localhost:8344/cache/stats
//
// With -cache-dir, results persist across restarts; repeated specs are
// served in O(lookup) from the cache, and duplicate in-flight specs attach
// to one simulation. SIGINT/SIGTERM drain in-flight jobs before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ccsvm"
	"ccsvm/internal/sweepd"
)

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	cacheDir := flag.String("cache-dir", "", "persistent result-cache directory (empty: in-memory cache only)")
	cacheEntries := flag.Int("cache-entries", 0, "in-memory cache capacity (0: default)")
	parallel := flag.Int("parallel", 0, "max concurrent simulations (0: GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max admitted requests before 503 (0: default)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	cache, err := ccsvm.NewCache(ccsvm.CacheOptions{MaxEntries: *cacheEntries, Dir: *cacheDir})
	if err != nil {
		log.Fatalf("ccsvm-serve: %v", err)
	}
	svc := sweepd.New(sweepd.Config{Cache: cache, Parallel: *parallel, QueueDepth: *queue})
	// Bound header reads so a slow or idle client cannot hold a connection
	// open indefinitely; bodies are bounded by the handlers.
	srv := &http.Server{Addr: *addr, Handler: svc, ReadHeaderTimeout: 10 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("ccsvm-serve: listening on %s (cache dir %q)", *addr, *cacheDir)

	select {
	case err := <-errCh:
		log.Fatalf("ccsvm-serve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("ccsvm-serve: draining (up to %v)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting and wait for handlers, then for the job queue — the
	// handlers hold the jobs, so the second wait is a belt-and-braces bound.
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("ccsvm-serve: http shutdown: %v", err)
	}
	if err := svc.Shutdown(drainCtx); err != nil {
		log.Printf("ccsvm-serve: job drain: %v", err)
	}
	log.Printf("ccsvm-serve: done")
}
