package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ccsvm"
	"ccsvm/internal/sweepd"
)

const (
	// serveClients closed-loop clients each send serveRequests requests per
	// pass, a fraction serveFresh of them for specs not seen before;
	// serveRequests is a multiple of 1/serveFresh and of the template count
	// over serveFresh.
	serveClients  = 2
	serveRequests = 150
	serveFresh    = 0.10
	// The hot set is larger than the LRU tier, so repeats are served from
	// both the memory and the disk tier.
	serveHotSet  = 64
	serveLRUSize = 48
	// reqHeader carries the client span's ID to the handler span.
	reqHeader = "X-Perfbench-Span"
)

// serveTemplates are the small specs the requests draw from; a request
// picks one and a seed.
var serveTemplates = []sweepd.SpecRequest{
	{Workload: "matmul", System: "ccsvm", Params: &sweepd.ParamsRequest{N: 8}},
	{Workload: "vectoradd", System: "ccsvm", Params: &sweepd.ParamsRequest{N: 64}},
	{Workload: "apsp", System: "ccsvm", Params: &sweepd.ParamsRequest{N: 8}},
	{Workload: "sparse", System: "ccsvm", Params: &sweepd.ParamsRequest{N: 16, Density: 0.1}},
	{Workload: "matmul", System: "cpu", Params: &sweepd.ParamsRequest{N: 8}},
}

// serveSpec is one request body with what its response must hold.
type serveSpec struct {
	body []byte
	hash string
	// want is the spec's first (miss) response; every later response must
	// repeat it byte for byte.
	want []byte
}

// serveWorkload drives a sweepd.Server with a two-tier result cache from
// closed-loop clients over loopback HTTP.
type serveWorkload struct {
	cfg       runConfig
	dir       string
	cache     *ccsvm.Cache
	srv       *sweepd.Server
	ts        *httptest.Server
	transport *http.Transport
	client    *http.Client
	hot       []serveSpec
	rngs      [serveClients]*rand.Rand
	fresh     [serveClients]int64
	tr        atomic.Pointer[tracer]
	// wrap, when set, wraps the server's handler (the self-test uses it to
	// corrupt responses).
	wrap func(http.Handler) http.Handler
}

func newServeWorkload(cfg runConfig) *serveWorkload { return &serveWorkload{cfg: cfg} }

// makeSpec renders a template with a seed into a request body and its
// content address.
func makeSpec(t sweepd.SpecRequest, seed int64) (serveSpec, error) {
	p := *t.Params
	p.Seed = seed
	t.Params = &p
	body, err := json.Marshal(t)
	if err != nil {
		return serveSpec{}, err
	}
	spec, err := ccsvm.BuildSpec(t.Workload, ccsvm.SystemKind(t.System), "", nil,
		ccsvm.Params{N: p.N, Density: p.Density, Seed: p.Seed})
	if err != nil {
		return serveSpec{}, err
	}
	return serveSpec{body: body, hash: spec.Hash().Hex()}, nil
}

func (w *serveWorkload) setup() (passResult, error) {
	var err error
	if w.dir, err = os.MkdirTemp(buildDir, "serve-cache-"); err != nil {
		return passResult{}, err
	}
	w.cache, err = ccsvm.NewCache(ccsvm.CacheOptions{MaxEntries: serveLRUSize, Dir: w.dir})
	if err != nil {
		return passResult{}, err
	}
	w.srv = sweepd.New(sweepd.Config{Cache: w.cache})
	var h http.Handler = http.HandlerFunc(w.serveTraced)
	if w.wrap != nil {
		h = w.wrap(h)
	}
	w.ts = httptest.NewServer(h)
	w.transport = &http.Transport{MaxIdleConnsPerHost: serveClients}
	w.client = &http.Client{Transport: w.transport, Timeout: time.Minute}

	rng := rand.New(rand.NewPCG(uint64(w.cfg.seed), 0))
	seen := map[int64]bool{}
	w.hot = w.hot[:0]
	for len(w.hot) < serveHotSet {
		seed := rng.Int64N(1 << 31)
		if seen[seed] {
			continue
		}
		seen[seed] = true
		s, err := makeSpec(serveTemplates[len(w.hot)%len(serveTemplates)], seed)
		if err != nil {
			return passResult{}, err
		}
		w.hot = append(w.hot, s)
	}
	for c := range w.rngs {
		w.rngs[c] = rand.New(rand.NewPCG(uint64(w.cfg.seed), uint64(c+1)))
		w.fresh[c] = 0
	}
	// Warm the hot set: each spec's first request simulates, and its
	// response becomes the one every repeat must equal.
	res := passResult{work: newWorkCounts()}
	for i := range w.hot {
		res.attempted++
		s := &w.hot[i]
		body, cacheStatus, err := w.post(s.body, 0)
		if err == nil {
			_, err = checkFresh(body, s.hash, &res)
		}
		if err == nil && cacheStatus != "miss" {
			err = fmt.Errorf("first request served as %q, want miss", cacheStatus)
		}
		if err != nil {
			res.failed++
			fmt.Fprintf(os.Stderr, "perfbench: serve-cache warm-up: %v\n", err)
			continue
		}
		s.want = body
	}
	warm := w.pass(nil)
	res.attempted += warm.attempted
	res.failed += warm.failed
	return res, nil
}

// serveTraced is the server's handler: with a tracer installed it records a
// span around Server.ServeHTTP, the child of the client's request span.
func (w *serveWorkload) serveTraced(rw http.ResponseWriter, r *http.Request) {
	tr := w.tr.Load()
	if tr == nil {
		w.srv.ServeHTTP(rw, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get(reqHeader))
	start := time.Now()
	w.srv.ServeHTTP(rw, r)
	tr.record("sweepd.handler", parent, start, time.Now())
}

// post sends one /run request and returns the body of a 200 response and
// its cache provenance.
func (w *serveWorkload) post(body []byte, spanID int) ([]byte, string, error) {
	req, err := http.NewRequest(http.MethodPost, w.ts.URL+"/run", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanID != 0 {
		req.Header.Set(reqHeader, strconv.Itoa(spanID))
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, resp.Header.Get("X-Ccsvm-Cache"), nil
}

// checkFresh checks the response to a spec's first request and adds its
// simulated work to res.
func checkFresh(body []byte, hash string, res *passResult) (sweepd.RunResponse, error) {
	var rr sweepd.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return rr, fmt.Errorf("undecodable response: %v", err)
	}
	if rr.SpecHash != hash {
		return rr, fmt.Errorf("spec_hash %s, want %s", rr.SpecHash, hash)
	}
	if !rr.Checked {
		return rr, fmt.Errorf("spec %s: result not checked", hash[:12])
	}
	res.events += rr.Metrics["sim.events"]
	res.work.add(rr.Metrics)
	return rr, nil
}

// pass runs the clients concurrently, each sending serveRequests requests
// one after another.
func (w *serveWorkload) pass(tr *tracer) passResult {
	if tr != nil {
		w.tr.Store(tr)
		defer w.tr.Store(nil)
	}
	var results [serveClients]passResult
	var wg sync.WaitGroup
	for c := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[c] = w.client1(c, tr)
		}()
	}
	wg.Wait()
	total := passResult{work: newWorkCounts()}
	for _, r := range results {
		total.attempted += r.attempted
		total.failed += r.failed
		total.events += r.events
		total.reqLat = append(total.reqLat, r.reqLat...)
		total.missLat = append(total.missLat, r.missLat...)
		total.hitLat = append(total.hitLat, r.hitLat...)
		for k, v := range r.work.sums {
			total.work.sums[k] += v
		}
		for k, n := range r.work.rateN {
			total.work.rateN[k] += n
		}
	}
	return total
}

// client1 is one closed-loop client's share of a pass.
func (w *serveWorkload) client1(c int, tr *tracer) passResult {
	res := passResult{work: newWorkCounts()}
	rng := w.rngs[c]
	// Each block of 1/serveFresh requests holds exactly one new spec at a
	// seeded position, and new specs take the templates in turn, so every
	// pass carries the same mix of work whatever the seed.
	block := int(1 / serveFresh)
	freshAt := 0
	for i := 0; i < serveRequests; i++ {
		if i%block == 0 {
			freshAt = i + rng.IntN(block)
		}
		var s serveSpec
		fresh := i == freshAt
		if fresh {
			// Seeds at and above 1<<40 never occur in the hot set, and each
			// client has its own range, so these specs are new.
			w.fresh[c]++
			t := serveTemplates[w.fresh[c]%int64(len(serveTemplates))]
			var err error
			if s, err = makeSpec(t, 1<<40+int64(c)<<32+w.fresh[c]); err != nil {
				res.attempted++
				res.failed++
				fmt.Fprintf(os.Stderr, "perfbench: serve-cache: %v\n", err)
				continue
			}
		} else {
			s = w.hot[rng.IntN(len(w.hot))]
		}
		res.attempted++
		var spanID int
		start := time.Now()
		if tr != nil {
			spanID = tr.begin("client.request", 0, start)
		}
		body, cacheStatus, err := w.post(s.body, spanID)
		lat := time.Since(start)
		if tr != nil {
			tr.end(spanID, start.Add(lat))
		}
		res.reqLat = append(res.reqLat, lat)
		switch cacheStatus {
		case "miss":
			res.missLat = append(res.missLat, lat)
		case "hit":
			res.hitLat = append(res.hitLat, lat)
		}
		if err == nil {
			if fresh {
				_, err = checkFresh(body, s.hash, &res)
			} else if !bytes.Equal(body, s.want) {
				err = fmt.Errorf("spec %s: response differs from its first response", s.hash[:12])
			}
		}
		if err != nil {
			res.failed++
			fmt.Fprintf(os.Stderr, "perfbench: serve-cache: %v\n", err)
		}
	}
	return res
}

func (w *serveWorkload) serviceCounts() map[string]float64 {
	cs, ss := w.cache.Stats(), w.srv.Stats()
	hits := float64(cs.MemHits + cs.DiskHits)
	return map[string]float64{
		"resultcache.hit_ratio": safeDiv(hits, hits+float64(cs.Misses)),
		"resultcache.disk_hits": float64(cs.DiskHits),
		"resultcache.stores":    float64(cs.Stores),
		"sweepd.coalesced":      float64(ss.Coalesced),
		"sweepd.rejected":       float64(ss.Rejected),
	}
}

func (w *serveWorkload) close() {
	if w.ts != nil {
		w.ts.Close()
	}
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = w.srv.Shutdown(ctx) // the clients have stopped; nothing is left in flight
	}
	if w.transport != nil {
		w.transport.CloseIdleConnections()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
