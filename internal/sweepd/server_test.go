package sweepd_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccsvm"
	"ccsvm/internal/sweepd"
)

// blockCtl lets a test hold simulations of the registered blocking workload
// open: each entry into Run signals started and then parks on release. Tests
// run sequentially, so one package-global control is enough.
type blockCtl struct {
	started chan struct{}
	release chan struct{}
	runs    atomic.Int64
}

var ctl atomic.Pointer[blockCtl]

// init registers the instrumented workload the coalescing and drain tests
// drive: with no control installed it returns immediately, so it behaves
// like any cheap deterministic workload.
func init() {
	ccsvm.Register(ccsvm.Workload{
		Name:        "blocktest",
		Description: "sweepd test workload: parks until released, counts executions",
		Runners: map[ccsvm.SystemKind]ccsvm.RunFunc{
			ccsvm.SystemCCSVM: func(sys ccsvm.System, p ccsvm.Params) (ccsvm.Result, error) {
				if c := ctl.Load(); c != nil {
					c.runs.Add(1)
					c.started <- struct{}{}
					<-c.release
				}
				return ccsvm.Result{
					Label:        "blocktest",
					Time:         42,
					DRAMAccesses: 7,
					Checked:      true,
					Metrics:      map[string]float64{"sim.events": 1},
				}, nil
			},
		},
	})
}

// init also registers a workload whose simulation panics, standing in for a
// simulator bug a client's spec can reach.
func init() {
	ccsvm.Register(ccsvm.Workload{
		Name:        "panictest",
		Description: "sweepd test workload: its simulation panics",
		Runners: map[ccsvm.SystemKind]ccsvm.RunFunc{
			ccsvm.SystemCCSVM: func(sys ccsvm.System, p ccsvm.Params) (ccsvm.Result, error) {
				panic("panictest: simulated simulator bug")
			},
		},
	})
}

// newTestServer builds a served sweepd instance with a fresh in-memory
// cache.
func newTestServer(t *testing.T, cfg sweepd.Config) (*sweepd.Server, *httptest.Server) {
	t.Helper()
	if cfg.Cache == nil {
		cache, err := ccsvm.NewCache(ccsvm.CacheOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = cache
	}
	s := sweepd.New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and returns status, headers, and body.
func post(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, resp.Header, raw
}

// errKind decodes the machine-matchable kind of an error response.
func errKind(t *testing.T, raw []byte) string {
	t.Helper()
	var e struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("error body is not JSON: %v (%q)", err, raw)
	}
	return e.Kind
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCoalescingSingleExecution is the coalescing race test: N clients
// request the same spec while its simulation is parked; exactly one
// simulation executes, and every caller receives identical bytes.
func TestCoalescingSingleExecution(t *testing.T) {
	s, ts := newTestServer(t, sweepd.Config{Parallel: 4, QueueDepth: 128})
	c := &blockCtl{started: make(chan struct{}, 64), release: make(chan struct{})}
	ctl.Store(c)
	defer ctl.Store(nil)

	const clients = 24
	var wg sync.WaitGroup
	bodies := make([][]byte, clients)
	statuses := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _, bodies[i] = post(t, ts.URL+"/run", `{"workload":"blocktest","system":"ccsvm"}`)
		}(i)
	}

	<-c.started // the leader is inside the simulation
	// Every other client must attach to the in-flight computation: none of
	// them can be a cache hit (nothing is stored yet) or a new run (the
	// address is occupied).
	waitFor(t, func() bool { return s.Stats().Coalesced == clients-1 }, "all followers to coalesce")
	close(c.release)
	wg.Wait()

	if got := c.runs.Load(); got != 1 {
		t.Fatalf("%d simulations executed, want exactly 1", got)
	}
	if st := s.Stats(); st.Runs != 1 || st.Coalesced != clients-1 {
		t.Fatalf("serve stats = %+v, want runs=1 coalesced=%d", st, clients-1)
	}
	for i := 0; i < clients; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("client %d: status %d, body %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d received different bytes:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
}

// TestProtocolVariantsNeverCoalesce: two in-flight requests that differ only
// in the coherence protocol are different content addresses, so neither may
// attach to the other's computation — both simulations must execute. This is
// the serving-layer face of the cache-poisoning fix (v1 spec addresses did
// not encode the protocol).
func TestProtocolVariantsNeverCoalesce(t *testing.T) {
	s, ts := newTestServer(t, sweepd.Config{Parallel: 4, QueueDepth: 128})
	c := &blockCtl{started: make(chan struct{}, 64), release: make(chan struct{})}
	ctl.Store(c)
	defer ctl.Store(nil)

	reqs := []string{
		`{"workload":"blocktest","system":"ccsvm"}`,
		`{"workload":"blocktest","system":"ccsvm","overrides":["ccsvm.coherence.protocol=mesi"]}`,
	}
	var wg sync.WaitGroup
	statuses := make([]int, len(reqs))
	bodies := make([][]byte, len(reqs))
	for i, body := range reqs {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			statuses[i], _, bodies[i] = post(t, ts.URL+"/run", body)
		}(i, body)
	}
	// Both simulations must start: if the MESI request had coalesced onto the
	// MOESI one, the second started-signal would never arrive.
	<-c.started
	<-c.started
	close(c.release)
	wg.Wait()

	if got := c.runs.Load(); got != 2 {
		t.Fatalf("%d simulations executed, want 2 (one per protocol)", got)
	}
	if st := s.Stats(); st.Coalesced != 0 {
		t.Fatalf("%d requests coalesced across protocol variants", st.Coalesced)
	}
	for i := range reqs {
		if statuses[i] != http.StatusOK {
			t.Fatalf("client %d: status %d, body %s", i, statuses[i], bodies[i])
		}
	}
	var a, b struct {
		SpecHash string `json:"spec_hash"`
	}
	if err := json.Unmarshal(bodies[0], &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bodies[1], &b); err != nil {
		t.Fatal(err)
	}
	if a.SpecHash == b.SpecHash {
		t.Fatalf("protocol variants served under one spec hash %s", a.SpecHash)
	}
}

// TestRunCacheHit is the acceptance flow: repeated identical POST /run
// requests hit the cache, visible in /cache/stats, and the cached document
// is byte-identical to the fresh one.
func TestRunCacheHit(t *testing.T) {
	s, ts := newTestServer(t, sweepd.Config{})
	body := `{"workload":"vectoradd","system":"ccsvm","params":{"n":16,"seed":7}}`

	st1, h1, raw1 := post(t, ts.URL+"/run", body)
	if st1 != http.StatusOK {
		t.Fatalf("first run: %d %s", st1, raw1)
	}
	if got := h1.Get("X-Ccsvm-Cache"); got != "miss" {
		t.Fatalf("first run cache status = %q, want miss", got)
	}

	st2, h2, raw2 := post(t, ts.URL+"/run", body)
	if st2 != http.StatusOK {
		t.Fatalf("second run: %d %s", st2, raw2)
	}
	if got := h2.Get("X-Ccsvm-Cache"); got != "hit" {
		t.Fatalf("second run cache status = %q, want hit", got)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("cached response differs from fresh:\n%s\nvs\n%s", raw2, raw1)
	}

	var stats struct {
		Cache *ccsvm.CacheStats `json:"cache"`
		Serve sweepd.ServeStats `json:"serve"`
	}
	resp, err := http.Get(ts.URL + "/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("stats body: %v (%s)", err, raw)
	}
	if stats.Cache == nil || stats.Cache.MemHits < 1 || stats.Cache.Stores != 1 {
		t.Fatalf("cache stats do not show the hit: %s", raw)
	}
	if stats.Serve.Runs != 1 || stats.Serve.CacheHits != 1 {
		t.Fatalf("serve stats = %+v, want runs=1 cache_hits=1", stats.Serve)
	}
	if s.Stats().Runs != 1 {
		t.Fatalf("server executed %d simulations for 2 identical requests", s.Stats().Runs)
	}
}

// TestHandlerErrors pins the error taxonomy: malformed bodies are 400s,
// over-size bodies are 413s, unknown names are 404s, structurally impossible
// requests are 422s, and wrong methods are 405s.
func TestHandlerErrors(t *testing.T) {
	_, ts := newTestServer(t, sweepd.Config{})
	cases := []struct {
		name   string
		path   string
		body   string
		status int
		kind   string
	}{
		{"malformed json", "/run", `{"workload":`, http.StatusBadRequest, "bad_request"},
		{"unknown field", "/run", `{"wrkld":"matmul"}`, http.StatusBadRequest, "bad_request"},
		{"unknown workload", "/run", `{"workload":"nope","system":"ccsvm"}`, http.StatusNotFound, "unknown_workload"},
		{"unknown preset", "/run", `{"workload":"matmul","preset":"nope"}`, http.StatusNotFound, "unknown_preset"},
		{"unknown system", "/run", `{"workload":"matmul","system":"vax"}`, http.StatusNotFound, "unknown_system"},
		{"missing system", "/run", `{"workload":"matmul"}`, http.StatusNotFound, "unknown_system"},
		{"unsupported pair", "/run", `{"workload":"sparse","system":"opencl"}`, http.StatusUnprocessableEntity, "unsupported_pair"},
		{"unknown override path", "/run", `{"workload":"matmul","system":"ccsvm","overrides":["ccsvm.Nope=1"]}`, http.StatusUnprocessableEntity, "unknown_path"},
		{"bad override value", "/run", `{"workload":"matmul","system":"ccsvm","overrides":["ccsvm.NumMTTOPs=many"]}`, http.StatusUnprocessableEntity, "bad_value"},
		{"out of range override", "/run", `{"workload":"matmul","system":"ccsvm","overrides":["ccsvm.NumMTTOPs=-3"]}`, http.StatusUnprocessableEntity, "out_of_range"},
		// Parses, but no array can be built from it: NewMachine used to
		// panic on these.
		{"unbuildable cache geometry", "/run", `{"workload":"matmul","system":"ccsvm","overrides":["ccsvm.CPUL1.Assoc=3"]}`, http.StatusUnprocessableEntity, "out_of_range"},
		{"unbuildable apu cache geometry", "/run", `{"workload":"matmul","system":"cpu","overrides":["apu.CPUCaches.L2.SizeBytes=1000"]}`, http.StatusUnprocessableEntity, "out_of_range"},
		{"wrong machine override", "/run", `{"workload":"matmul","system":"ccsvm","overrides":["apu.NumCPUs=2"]}`, http.StatusUnprocessableEntity, "machine_mismatch"},
		{"sweep bad spec", "/sweep", `{"specs":[{"workload":"matmul","system":"ccsvm"},{"workload":"nope","system":"ccsvm"}]}`, http.StatusNotFound, "unknown_workload"},
		// A valid spec must be the whole body: a second value or junk after
		// it is rejected, not silently dropped.
		{"trailing data", "/run", `{"workload":"vectoradd","system":"ccsvm","params":{"n":16,"seed":7}} {"workload":"nope"} garbage`, http.StatusBadRequest, "bad_request"},
		// A valid spec padded past the 1 MiB body bound.
		{"oversize body", "/run", `{"workload":"vectoradd","system":"ccsvm","params":{"n":16,"seed":7}}` + strings.Repeat(" ", 1<<20), http.StatusRequestEntityTooLarge, "body_too_large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, raw := post(t, ts.URL+tc.path, tc.body)
			if status != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", status, tc.status, raw)
			}
			if kind := errKind(t, raw); kind != tc.kind {
				t.Fatalf("kind = %q, want %q", kind, tc.kind)
			}
		})
	}

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/run")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /run = %d, want 405", resp.StatusCode)
		}
	})
	t.Run("healthz", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(raw) != "ok\n" {
			t.Fatalf("healthz = %d %q", resp.StatusCode, raw)
		}
	})
}

// TestOutOfRangeParamsAre422: workload parameters the workload cannot run
// with are rejected while the spec resolves, as 422 out_of_range, before
// they take a simulation slot or count as a server error.
func TestOutOfRangeParamsAre422(t *testing.T) {
	s, ts := newTestServer(t, sweepd.Config{})
	for _, body := range []string{
		`{"workload":"matmul","system":"ccsvm","params":{"n":-1}}`,
		`{"workload":"sparse","system":"ccsvm","params":{"n":16,"density":1.5}}`,
	} {
		status, _, raw := post(t, ts.URL+"/run", body)
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status = %d, want 422 (body %s)", body, status, raw)
		}
		if kind := errKind(t, raw); kind != "out_of_range" {
			t.Fatalf("%s: kind = %q, want out_of_range", body, kind)
		}
	}
	if st := s.Stats(); st.Runs != 0 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want no runs and no errors", st)
	}
}

// TestPanickingSimulationFreesSlot: a simulation that panics answers 500,
// and neither wedges its content address nor leaks its simulation slot. With
// one slot, a leak would block every later miss; a wedged address would
// block the repeat forever.
func TestPanickingSimulationFreesSlot(t *testing.T) {
	s, ts := newTestServer(t, sweepd.Config{Parallel: 1})
	within := func(body string) (int, []byte) {
		t.Helper()
		type reply struct {
			status int
			raw    []byte
		}
		got := make(chan reply, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
			if err != nil {
				got <- reply{raw: []byte(err.Error())}
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			got <- reply{resp.StatusCode, raw}
		}()
		select {
		case r := <-got:
			return r.status, r.raw
		case <-time.After(10 * time.Second):
			t.Fatalf("POST %s did not complete", body)
			return 0, nil
		}
	}
	panicky := `{"workload":"panictest","system":"ccsvm","params":{"n":1}}`
	for i := 0; i < 2; i++ {
		status, raw := within(panicky)
		if status != http.StatusInternalServerError || errKind(t, raw) != "simulation" {
			t.Fatalf("request %d: status %d body %s, want 500 simulation", i, status, raw)
		}
	}
	if status, raw := within(`{"workload":"blocktest","system":"ccsvm","params":{"n":1}}`); status != http.StatusOK {
		t.Fatalf("different spec after panics: status %d body %s", status, raw)
	}
	if st := s.Stats(); st.Runs != 3 || st.Errors != 2 {
		t.Fatalf("stats = %+v, want 3 runs, 2 errors (a panic is never cached)", st)
	}
}

// TestSweepStreamOrdering: a sweep at Parallel > 1 streams JSONL rows in
// spec order with tags intact, duplicate specs coalesce or hit the cache
// (one simulation per address), and row contents match the request order.
func TestSweepStreamOrdering(t *testing.T) {
	s, ts := newTestServer(t, sweepd.Config{Parallel: 4})
	var specs []string
	var wantTags []string
	for i := 0; i < 8; i++ {
		// Four distinct addresses, each requested twice.
		tag := fmt.Sprintf("row-%d", i)
		specs = append(specs, fmt.Sprintf(
			`{"workload":"vectoradd","system":"ccsvm","params":{"n":16,"seed":%d},"tag":%q}`, i%4, tag))
		wantTags = append(wantTags, tag)
	}
	body := `{"specs":[` + strings.Join(specs, ",") + `]}`

	status, header, raw := post(t, ts.URL+"/sweep", body)
	if status != http.StatusOK {
		t.Fatalf("sweep: %d %s", status, raw)
	}
	if ct := header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}

	type row struct {
		Seed      int64  `json:"seed"`
		Tag       string `json:"tag"`
		SimTimePs int64  `json:"sim_time_ps"`
		Error     string `json:"error"`
		Checked   bool   `json:"checked"`
	}
	var rows []row
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		var r row
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad JSONL row %q: %v", sc.Text(), err)
		}
		rows = append(rows, r)
	}
	if len(rows) != len(wantTags) {
		t.Fatalf("got %d rows, want %d:\n%s", len(rows), len(wantTags), raw)
	}
	for i, r := range rows {
		if r.Tag != wantTags[i] {
			t.Fatalf("row %d tag = %q, want %q (stream out of spec order)", i, r.Tag, wantTags[i])
		}
		if r.Error != "" || !r.Checked {
			t.Fatalf("row %d failed: %+v", i, r)
		}
		if r.Seed != int64(i%4) {
			t.Fatalf("row %d seed = %d, want %d", i, r.Seed, i%4)
		}
		// Duplicate addresses must carry identical results.
		if i >= 4 && rows[i-4].SimTimePs != r.SimTimePs {
			t.Fatalf("rows %d and %d share an address but disagree: %d vs %d",
				i-4, i, rows[i-4].SimTimePs, r.SimTimePs)
		}
	}
	if st := s.Stats(); st.Runs != 4 {
		t.Fatalf("sweep executed %d simulations for 4 distinct addresses, want 4 (stats %+v)", st.Runs, st)
	}
}

// TestQueueFull: past QueueDepth admitted requests, the server sheds load
// with 503 "busy" instead of queueing without bound.
func TestQueueFull(t *testing.T) {
	s, ts := newTestServer(t, sweepd.Config{Parallel: 1, QueueDepth: 1})
	c := &blockCtl{started: make(chan struct{}, 8), release: make(chan struct{})}
	ctl.Store(c)
	defer ctl.Store(nil)

	done := make(chan []byte, 1)
	go func() {
		_, _, raw := post(t, ts.URL+"/run", `{"workload":"blocktest","system":"ccsvm"}`)
		done <- raw
	}()
	<-c.started

	status, _, raw := post(t, ts.URL+"/run", `{"workload":"blocktest","system":"ccsvm","params":{"seed":99}}`)
	if status != http.StatusServiceUnavailable || errKind(t, raw) != "busy" {
		t.Fatalf("overload response = %d %s, want 503 busy", status, raw)
	}
	if s.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", s.Stats().Rejected)
	}
	close(c.release)
	<-done
}

// TestGracefulShutdown: Shutdown lets the parked in-flight job finish (the
// client gets its 200) while new work is refused with 503 "draining".
func TestGracefulShutdown(t *testing.T) {
	s, ts := newTestServer(t, sweepd.Config{Parallel: 2, QueueDepth: 8})
	c := &blockCtl{started: make(chan struct{}, 8), release: make(chan struct{})}
	ctl.Store(c)
	defer ctl.Store(nil)

	inflight := make(chan struct {
		status int
		body   []byte
	}, 1)
	go func() {
		status, _, raw := post(t, ts.URL+"/run", `{"workload":"blocktest","system":"ccsvm"}`)
		inflight <- struct {
			status int
			body   []byte
		}{status, raw}
	}()
	<-c.started

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	waitFor(t, func() bool { return s.Stats().Draining }, "server to start draining")

	status, _, raw := post(t, ts.URL+"/run", `{"workload":"vectoradd","system":"ccsvm"}`)
	if status != http.StatusServiceUnavailable || errKind(t, raw) != "draining" {
		t.Fatalf("request during drain = %d %s, want 503 draining", status, raw)
	}

	close(c.release)
	got := <-inflight
	if got.status != http.StatusOK {
		t.Fatalf("in-flight job was not drained cleanly: %d %s", got.status, got.body)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}
