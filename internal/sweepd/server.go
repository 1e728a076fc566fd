package sweepd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"

	"ccsvm"
	"ccsvm/internal/resultcache"
)

// Config sizes a Server.
type Config struct {
	// Cache memoizes Results across requests and restarts. Optional: a nil
	// cache still coalesces in-flight duplicates but re-simulates completed
	// specs.
	Cache *ccsvm.Cache
	// Parallel bounds concurrent simulations. Zero or negative means
	// GOMAXPROCS.
	Parallel int
	// QueueDepth bounds admitted requests (running + waiting); past it,
	// requests get 503. Zero means DefaultQueueDepth.
	QueueDepth int
}

// DefaultQueueDepth is the admission bound when Config.QueueDepth is zero.
const DefaultQueueDepth = 64

// Server is the coalescing, memoizing sweep service. Create one with New,
// serve it with net/http, and drain it with Shutdown.
type Server struct {
	cache *ccsvm.Cache
	sem   chan struct{} // bounds concurrent simulations
	slots chan struct{} // bounds admitted requests
	mux   *http.ServeMux

	mu       sync.Mutex
	closed   bool
	inflight map[resultcache.Key]*call
	jobs     sync.WaitGroup
	runs     uint64
	coal     uint64
	hits     uint64
	rejected uint64
	errs     uint64
}

// call is one leader computation that any number of followers may attach to.
// done is closed once res/body/apiErr are final; every field is read-only
// afterwards, so all callers observe identical bytes.
type call struct {
	done   chan struct{}
	res    ccsvm.Result
	body   []byte
	apiErr *apiError
}

// New builds a Server.
func New(cfg Config) *Server {
	parallel := cfg.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	s := &Server{
		cache:    cfg.Cache,
		sem:      make(chan struct{}, parallel),
		slots:    make(chan struct{}, depth),
		inflight: make(map[resultcache.Key]*call),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /run", s.handleRun)
	s.mux.HandleFunc("POST /sweep", s.handleSweep)
	s.mux.HandleFunc("GET /cache/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown stops admitting requests (new ones get 503 "draining") and waits
// for every in-flight job to finish or the context to expire.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats snapshots the serving counters.
func (s *Server) Stats() ServeStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ServeStats{
		Runs:      s.runs,
		Coalesced: s.coal,
		CacheHits: s.hits,
		Rejected:  s.rejected,
		Errors:    s.errs,
		Draining:  s.closed,
	}
}

// admit claims one queue slot, failing fast with a 503 when the server is
// draining or the queue is full. The returned release function must be
// called exactly once.
func (s *Server) admit() (func(), *apiError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.rejected++
		return nil, errDraining
	}
	select {
	case s.slots <- struct{}{}:
	default:
		s.rejected++
		return nil, errBusy
	}
	s.jobs.Add(1)
	return func() {
		<-s.slots
		s.jobs.Done()
	}, nil
}

// do produces the Result for a spec — from the cache, by attaching to an
// in-flight computation of the same content address, or by simulating as the
// leader — and reports which ("hit", "coalesced", "miss"). The caller must
// hold an admission slot.
func (s *Server) do(spec ccsvm.RunSpec) (*call, string) {
	key := spec.Hash()
	if s.cache != nil {
		if res, ok := s.cache.Get(key); ok {
			s.mu.Lock()
			s.hits++
			s.mu.Unlock()
			return &call{res: res, body: marshalRunResponse(key, spec, res)}, "hit"
		}
	}

	s.mu.Lock()
	if c, ok := s.inflight[key]; ok {
		s.coal++
		s.mu.Unlock()
		<-c.done
		return c, "coalesced"
	}
	c := &call{done: make(chan struct{})}
	s.inflight[key] = c
	s.mu.Unlock()
	// However the leader finishes, its followers are released and the
	// content address is free for the next request.
	defer func() {
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
		close(c.done)
	}()

	res, err := s.simulate(spec)
	if err != nil {
		s.mu.Lock()
		s.errs++
		s.mu.Unlock()
		c.apiErr = &apiError{status: http.StatusInternalServerError, kind: "simulation", msg: err.Error()}
	} else {
		c.res = res
		c.body = marshalRunResponse(key, spec, res)
		if s.cache != nil {
			// A persist failure is counted in the cache's own store_errors;
			// the result is still served.
			_ = s.cache.Put(key, spec.String(), res)
		}
	}
	return c, "miss"
}

// simulate runs one spec through the registry in a simulation slot, counting
// it. A panicking simulation gives its slot back and becomes an error, which
// is never cached.
func (s *Server) simulate(spec ccsvm.RunSpec) (res ccsvm.Result, err error) {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	defer func() {
		if p := recover(); p != nil {
			res, err = ccsvm.Result{}, fmt.Errorf("simulation panicked: %v", p)
		}
	}()
	w, ok := ccsvm.Lookup(spec.Workload)
	if !ok {
		// resolve() validated the workload; losing it mid-flight is a
		// programming error, reported rather than panicking in a handler.
		return ccsvm.Result{}, fmt.Errorf("%w %q", ccsvm.ErrUnknownWorkload, spec.Workload)
	}
	s.mu.Lock()
	s.runs++
	s.mu.Unlock()
	return w.Run(spec.System, spec.Params)
}

// marshalRunResponse renders the response document for one content address.
// It is built from the normalized spec, so every route to an address — any
// equivalent raw params, coalesced or cached — yields identical bytes.
func marshalRunResponse(key resultcache.Key, spec ccsvm.RunSpec, res ccsvm.Result) []byte {
	norm := spec.Normalized()
	body, err := json.Marshal(RunResponse{
		SpecHash:     key.Hex(),
		Workload:     norm.Workload,
		System:       string(norm.System.Kind),
		N:            norm.Params.N,
		Density:      norm.Params.Density,
		Seed:         norm.Params.Seed,
		IncludeInit:  norm.Params.IncludeInit,
		Label:        res.Label,
		SimTimePs:    int64(res.Time),
		DRAMAccesses: res.DRAMAccesses,
		Checked:      res.Checked,
		Metrics:      res.Metrics,
	})
	if err != nil {
		// Results are plain scalars and a string-keyed float map; marshaling
		// cannot fail without a schema bug.
		panic(fmt.Sprintf("sweepd: marshal run response: %v", err))
	}
	return append(body, '\n')
}

// handleRun serves POST /run: one spec, one JSON document.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req SpecRequest
	if aerr := decodeJSON(w, r, &req); aerr != nil {
		writeError(w, aerr)
		return
	}
	spec, aerr := resolve(req)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	release, aerr := s.admit()
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	defer release()
	c, status := s.do(spec)
	if c.apiErr != nil {
		writeError(w, c.apiErr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Ccsvm-Cache", status)
	w.Write(c.body)
}

// handleSweep serves POST /sweep: every spec is validated up front (any
// resolution failure rejects the whole request before the stream starts),
// then results stream as JSON lines in spec order — the Runner sink schema —
// while execution proceeds in parallel with coalescing and caching.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if aerr := decodeJSON(w, r, &req); aerr != nil {
		writeError(w, aerr)
		return
	}
	specs := make([]ccsvm.RunSpec, len(req.Specs))
	for i, sr := range req.Specs {
		spec, aerr := resolve(sr)
		if aerr != nil {
			aerr.msg = fmt.Sprintf("spec %d: %s", i, aerr.msg)
			writeError(w, aerr)
			return
		}
		specs[i] = spec
	}
	release, aerr := s.admit()
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	defer release()

	w.Header().Set("Content-Type", "application/x-ndjson")
	sink := ccsvm.NewJSONLSink(newFlushWriter(w))
	results := make([]ccsvm.RunResult, len(specs))
	done := make(chan int, len(specs))
	for i := range specs {
		go func(i int) {
			c, status := s.do(specs[i])
			rr := ccsvm.RunResult{Spec: specs[i], Index: i, Result: c.res, Cached: status == "hit"}
			if c.apiErr != nil {
				rr.Err = errors.New(c.apiErr.msg)
				rr.Result = ccsvm.Result{}
			}
			results[i] = rr
			done <- i
		}(i)
	}
	// Emit in spec order regardless of completion order, exactly like
	// Runner.Run, so sweep output is byte-stable at any parallelism.
	ready := make([]bool, len(specs))
	next, clientGone := 0, false
	for range specs {
		i := <-done
		ready[i] = true
		for next < len(specs) && ready[next] {
			if !clientGone && sink.Emit(results[next]) != nil {
				// The client went away; keep draining completions so no
				// goroutine leaks, but stop writing.
				clientGone = true
			}
			next++
		}
	}
}

// handleStats serves GET /cache/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{Serve: s.Stats()}
	if s.cache != nil {
		cs := s.cache.Stats()
		resp.Cache = &cs
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	io.WriteString(w, "ok\n")
}

// maxBodyBytes bounds a request body. A /sweep of a few thousand specs fits;
// anything larger is refused before it is buffered.
const maxBodyBytes = 1 << 20

// decodeJSON strictly decodes a request body holding exactly one JSON value:
// malformed JSON, unknown fields and trailing data are 400s so schema typos
// fail loudly instead of running a default spec, and a body over
// maxBodyBytes is a 413.
func decodeJSON(w http.ResponseWriter, r *http.Request, into any) *apiError {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(into)
	if err == nil {
		// Exactly one value: the next token must be the end of the body.
		if _, err = dec.Token(); err == io.EOF {
			return nil
		}
		if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return &apiError{status: http.StatusRequestEntityTooLarge, kind: "body_too_large",
			msg: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)}
	}
	return &apiError{status: http.StatusBadRequest, kind: "bad_request", msg: "bad request body: " + err.Error()}
}

// writeError renders a typed error as its status and JSON body.
func writeError(w http.ResponseWriter, aerr *apiError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(aerr.status)
	json.NewEncoder(w).Encode(ErrorResponse{Error: aerr.msg, Kind: aerr.kind})
}

// flushWriter flushes after every write so JSONL rows reach sweep clients as
// they complete, not when the response buffer fills.
type flushWriter struct {
	w io.Writer
	f http.Flusher
}

// newFlushWriter wraps a response writer, degrading gracefully when the
// writer cannot flush (httptest recorders, middleware).
func newFlushWriter(w http.ResponseWriter) flushWriter {
	f, _ := w.(http.Flusher)
	return flushWriter{w: w, f: f}
}

// Write implements io.Writer.
func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}
