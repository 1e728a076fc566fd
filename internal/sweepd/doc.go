// Package sweepd is the long-running sweep service in front of the
// simulator: an HTTP front end (stdlib only) that resolves spec requests
// through the ccsvm facade, memoizes Results in a content-addressed
// resultcache, and coalesces duplicate in-flight requests so a spec is never
// simulated twice concurrently no matter how many callers ask for it.
//
// Endpoints:
//
//	POST /run         one spec; JSON result document, identical bytes for
//	                  every caller of the same content address
//	POST /sweep       a list of specs; streams JSON-lines results in spec
//	                  order (the Runner sink schema) at any parallelism
//	GET  /cache/stats cache tier counters plus serving counters
//	GET  /healthz     liveness
//
// A POST body must be exactly one JSON value of at most 1 MiB: trailing
// data is a 400 and an over-size body a 413.
//
// Admission is a bounded slot pool (one slot per admitted request — a sweep
// holds one slot for its whole stream); past the bound, requests are
// rejected with 503 rather than queued without limit. Within admission,
// simulations share a semaphore sized to the configured parallelism, and
// identical in-flight content addresses attach to one leader computation
// (the coalescing map) instead of re-simulating.
//
// Unlike the simulated-machine packages, sweepd is deliberately NOT
// annotated //ccsvm:deterministic: it is the concurrent, wall-clock-facing
// serving shell around the deterministic core, and the lint suite's
// determinism analyzer does not apply to it. Every simulation it launches
// still runs inside the deterministic contract, which is exactly what makes
// caching and coalescing sound.
package sweepd
