package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// the program; Parent is the ID of the span that caused it.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory; they are written out once
// the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(name string, parent int, start time.Time) int {
	return t.record(name, parent, start, start)
}

func (t *tracer) end(id int, at time.Time) {
	t.mu.Lock()
	t.spans[id-1].EndNs = int64(at.Sub(t.t0))
	t.mu.Unlock()
}

// record stores a finished span and returns its ID.
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0))})
	return id
}

// durations returns the length in ns of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs))
		}
	}
	return out
}

// childGaps returns, for every span named parent with a child named child,
// the parent's length minus the child's, in ns.
func (t *tracer) childGaps(parent, child string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	inner := map[int]int64{}
	for _, s := range t.spans {
		if s.Name == child {
			inner[s.Parent] = s.EndNs - s.StartNs
		}
	}
	var out []float64
	for _, s := range t.spans {
		if d, ok := inner[s.ID]; ok && s.Name == parent {
			out = append(out, float64(s.EndNs-s.StartNs-d))
		}
	}
	return out
}

// tracedRun sets the workload up once, measures half the window untraced
// (the host-time metrics) and half traced (CPU profile, heap-profile delta
// and spans), then runs the layer probes, and reports every per-layer
// metric.
func tracedRun(def workloadDef, cfg runConfig) (report, error) {
	var ck checks
	w := def.build(cfg)
	defer w.close()
	res, err := w.setup()
	ck.add(res.attempted, res.failed)
	if err != nil {
		return report{}, err
	}
	half := cfg.window / 2
	untraced := measure(w, half, nil, &ck)

	tr := newTracer()
	var cpuProf bytes.Buffer
	heapBefore := takeHeapSnapshot()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gcBefore := ms.NumGC
	if err := pprof.StartCPUProfile(&cpuProf); err != nil {
		return report{}, fmt.Errorf("cpu profile: %w", err)
	}
	traced := measure(w, half, tr, &ck)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms)
	gcCycles := float64(ms.NumGC - gcBefore)
	allocShares := allocByLayer(heapBefore, takeHeapSnapshot())
	hostShares, err := cpuByLayer(cpuProf.Bytes())
	if err != nil {
		return report{}, fmt.Errorf("cpu profile: %w", err)
	}

	m := map[string]metric{}
	for _, l := range layers {
		m["host."+l] = metric{100 * hostShares[l], "%"}
		m["alloc."+l] = metric{100 * allocShares[l], "%"}
	}
	var events, cpuNs float64
	for _, s := range traced {
		events += s.res.events
		cpuNs += float64(s.cpu)
	}
	m["host.ns_per_event"] = metric{safeDiv(cpuNs, events), "ns"}
	m["go.gc_cycles"] = metric{gcCycles / float64(len(traced)), "count"}
	for _, s := range paperSeries {
		m["run."+s.name+"_ms"] = metric{median(tr.durations("run."+s.name)) / 1e6, "ms"}
	}
	m["sweepd.handler_us"] = metric{median(tr.durations("sweepd.handler")) / 1e3, "us"}
	m["net.overhead_us"] = metric{median(tr.childGaps("client.request", "sweepd.handler")) / 1e3, "us"}
	var hits []float64
	for _, s := range untraced {
		hits = appendDurations(hits, s.res.hitLat)
	}
	m["hit_p50_us"] = metric{quantile(hits, 0.5) / 1e3, "us"}
	m["hit_p99_us"] = metric{quantile(hits, 0.99) / 1e3, "us"}
	for k, v := range traced[len(traced)-1].res.work.values() {
		m[k] = metric{v, workUnit(k)}
	}
	for k, v := range w.serviceCounts() {
		m[k] = metric{v, workUnit(k)}
	}
	base := hostTime(untraced)
	for k, v := range base {
		m[k] = v
	}
	m["trace.events_per_s_ratio"] = metric{safeDiv(hostTime(traced)["events_per_s"].Value, base["events_per_s"].Value), "ratio"}
	probes, err := runProbes()
	if err != nil {
		return report{}, fmt.Errorf("probes: %w", err)
	}
	for k, v := range probes {
		m[k] = v
	}
	if err := writeSpans(def.name, cfg.seed, tr.spans); err != nil {
		return report{}, fmt.Errorf("spans: %w", err)
	}
	return ck.report(m), nil
}

func workUnit(key string) string {
	switch key {
	case "l1.hit_rate", "l2.hit_rate", "tlb.hit_rate", "resultcache.hit_ratio":
		return "ratio"
	}
	return "count"
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
