package main

import (
	"fmt"
	"os"
	"time"

	"ccsvm"
)

// workload is one traffic mix under measurement.
type workload interface {
	// setup builds the workload's state and runs one checked warm-up pass.
	setup() (passResult, error)
	// pass runs one measured pass; tr is nil on untraced passes.
	pass(tr *tracer) passResult
	// serviceCounts reports the cache and server counters; zero where the
	// workload has neither.
	serviceCounts() map[string]float64
	close()
}

// passResult is what one pass did and how its checks went.
type passResult struct {
	attempted, failed int
	// events is the number of simulated engine events the pass executed.
	events float64
	// reqLat is the latency of every request; missLat of those that
	// simulated, hitLat of those answered without simulating.
	reqLat, missLat, hitLat []time.Duration
	// work sums the machine counts of every simulation in the pass.
	work workCounts
}

// workloadDef names a workload and records why it is in the benchmark.
type workloadDef struct {
	name, why string
	build     func(cfg runConfig) workload
}

var workloadDefs = []workloadDef{
	{"paper-sweep", "the 14 paper points users run; the only workload on the APU layers, building 14 machines per pass",
		func(cfg runConfig) workload { return newSimWorkload(cfg, paperSeries) }},
	{"ccsvm-readshare", "one long read-shared CCSVM run: L1 hits, thread switches and engine dispatch, near-zero set-up",
		func(cfg runConfig) workload { return newSimWorkload(cfg, []series{readShare}) }},
	{"ccsvm-writeshare", "one write-shared CCSVM run: directory, forwards, invalidations, NoC and DRAM do the work",
		func(cfg runConfig) workload { return newSimWorkload(cfg, []series{writeShare}) }},
	{"serve-cache", "sweep service with a two-tier result cache: 90% repeats bypass the simulator, 10% new specs simulate",
		func(cfg runConfig) workload { return newServeWorkload(cfg) }},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	var out []string
	for _, d := range workloadDefs {
		out = append(out, d.name)
	}
	return out
}

// series is one simulation point: a registered workload on a system.
type series struct {
	name, workload, system string
	n                      int
	density                float64
	init                   bool
}

// paperSeries is the list of cmd/ccsvm-bench: the (workload, system, n)
// points of the paper's figures.
var paperSeries = []series{
	{"fig5_matmul_ccsvm", "matmul", "ccsvm", 32, 0, false},
	{"fig5_matmul_apu_opencl", "matmul", "opencl", 32, 0, false},
	{"fig5_matmul_apu_cpu", "matmul", "cpu", 32, 0, false},
	{"fig6_apsp_ccsvm", "apsp", "ccsvm", 20, 0, false},
	{"fig6_apsp_apu_opencl", "apsp", "opencl", 20, 0, false},
	{"fig6_apsp_apu_cpu", "apsp", "cpu", 20, 0, false},
	{"fig7_barneshut_ccsvm", "barneshut", "ccsvm", 96, 0, false},
	{"fig7_barneshut_apu_cpu", "barneshut", "cpu", 96, 0, false},
	{"fig7_barneshut_apu_pthreads", "barneshut", "pthreads", 96, 0, false},
	{"fig8_sparse_size_ccsvm", "sparse", "ccsvm", 48, 0.02, false},
	{"fig8_sparse_size_apu_cpu", "sparse", "cpu", 48, 0.02, false},
	{"fig8_sparse_density_ccsvm", "sparse", "ccsvm", 48, 0.06, false},
	{"code_vectoradd_xthreads", "vectoradd", "ccsvm", 256, 0, false},
	{"code_vectoradd_opencl", "vectoradd", "opencl", 256, 0, true},
}

var (
	readShare  = series{"matmul_ccsvm_64", "matmul", "ccsvm", 64, 0, false}
	writeShare = series{"sparse_ccsvm_96", "sparse", "ccsvm", 96, 0.06, false}
)

// triple is the determinism fingerprint of one simulation.
type triple struct {
	simTimePs int64
	simEvents uint64
	traceHash string
}

func (t triple) String() string {
	return fmt.Sprintf("(sim_time_ps %d, sim_events %d, trace_hash %s)", t.simTimePs, t.simEvents, t.traceHash)
}

func tripleOf(r ccsvm.Result) triple {
	hi := uint64(r.Metrics["sim.trace_hash_hi"])
	lo := uint64(r.Metrics["sim.trace_hash_lo"])
	return triple{int64(r.Time), uint64(r.Metrics["sim.events"]), fmt.Sprintf("%016x", hi<<32|lo)}
}

// pinKey identifies a spec in pinnedResults.
func pinKey(s series, seed int64) string {
	return fmt.Sprintf("%s/%s/n=%d/d=%v/init=%v/seed=%d", s.workload, s.system, s.n, s.density, s.init, seed)
}

// pinnedResults holds the expected fingerprint of every simulation the sim
// workloads run at seed 42. The 14 paper points are the values recorded in
// BENCH_2026-08-07-fused.json; a spec with no pin is checked only against
// its own first run.
var pinnedResults = map[string]triple{
	pinKey(paperSeries[0], 42):  {40047140, 143596, "61500d19581582d7"},
	pinKey(paperSeries[1], 42):  {200975811, 175531, "98c77049a11be1d2"},
	pinKey(paperSeries[2], 42):  {86727680, 67776, "7c4dee3260e9bd45"},
	pinKey(paperSeries[3], 42):  {19762622, 74866, "ad723f76b3c4a620"},
	pinKey(paperSeries[4], 42):  {855270808, 43919, "f4e0ad009a893048"},
	pinKey(paperSeries[5], 42):  {20330000, 25081, "129ee88ca8d6b47b"},
	pinKey(paperSeries[6], 42):  {187427375, 273422, "47537e8f148a7dbb"},
	pinKey(paperSeries[7], 42):  {183038804, 117036, "0fb12152d7f42ef9"},
	pinKey(paperSeries[8], 42):  {153865022, 209904, "e5b3db24af966d48"},
	pinKey(paperSeries[9], 42):  {51742147, 53975, "f43d71b95625e781"},
	pinKey(paperSeries[10], 42): {10811922, 6385, "bdc662028df79f03"},
	pinKey(paperSeries[11], 42): {182253396, 311459, "ad90d4545ffdc7e0"},
	pinKey(paperSeries[12], 42): {4578952, 17394, "0a993cd11c30f0b3"},
	pinKey(paperSeries[13], 42): {230104997108, 3136, "b65ebc52b5a6513f"},
	pinKey(readShare, 42):       {166436652, 1375209, "2f53f4ba0a44cad4"},
	pinKey(writeShare, 42):      {967109767, 2871381, "8fb283d0a657ab35"},
}

// simWorkload sends a fixed list of specs through a one-worker Runner; one
// pass is one Runner.Run of the whole list.
type simWorkload struct {
	cfg    runConfig
	series []series
	specs  []ccsvm.RunSpec
	runner *ccsvm.Runner
	clock  *emitClock
	// want is the fingerprint of every spec from the warm-up pass; each
	// later pass must repeat it exactly.
	want []triple
}

func newSimWorkload(cfg runConfig, list []series) *simWorkload {
	return &simWorkload{cfg: cfg, series: list}
}

func (w *simWorkload) setup() (passResult, error) {
	w.specs = w.specs[:0]
	for _, s := range w.series {
		sys, err := ccsvm.NewSystem(ccsvm.SystemKind(s.system))
		if err != nil {
			return passResult{}, fmt.Errorf("%s: %w", s.name, err)
		}
		w.specs = append(w.specs, ccsvm.RunSpec{
			Workload: s.workload,
			System:   sys,
			Params:   ccsvm.Params{N: s.n, Density: s.density, Seed: w.cfg.seed, IncludeInit: s.init},
		})
	}
	w.clock = &emitClock{stamps: make([]time.Time, len(w.specs))}
	w.runner = &ccsvm.Runner{Parallel: 1, Sinks: []ccsvm.Sink{w.clock}}
	w.want = nil
	return w.pass(nil), nil
}

func (w *simWorkload) pass(tr *tracer) passResult {
	start := time.Now()
	results, _ := w.runner.Run(w.specs) // per-run errors are checked below
	res := passResult{attempted: len(results), work: newWorkCounts()}
	prev := start
	var passID int
	if tr != nil {
		passID = tr.begin("runner.run", 0, start)
	}
	for i, rr := range results {
		lat := w.clock.stamps[i].Sub(prev)
		prev = w.clock.stamps[i]
		res.reqLat = append(res.reqLat, lat)
		res.missLat = append(res.missLat, lat)
		if tr != nil {
			tr.record("run."+w.series[i].name, passID, w.clock.stamps[i].Add(-lat), w.clock.stamps[i])
		}
		if msg := w.check(i, rr); msg != "" {
			res.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.series[i].name, msg)
			continue
		}
		res.events += rr.Result.Metrics["sim.events"]
		res.work.add(rr.Result.Metrics)
	}
	if tr != nil {
		tr.end(passID, prev)
	}
	return res
}

// check returns why run i failed, or "". The warm-up pass sets the
// fingerprint every later pass must repeat.
func (w *simWorkload) check(i int, rr ccsvm.RunResult) string {
	got := tripleOf(rr.Result)
	if len(w.want) <= i {
		w.want = append(w.want, got)
	}
	if rr.Err != nil {
		return rr.Err.Error()
	}
	if !rr.Result.Checked {
		return "result not checked"
	}
	if pin, ok := w.cfg.pins[pinKey(w.series[i], w.cfg.seed)]; ok && got != pin {
		return fmt.Sprintf("got %v, pinned %v", got, pin)
	}
	if got != w.want[i] {
		return fmt.Sprintf("got %v, warm-up pass gave %v", got, w.want[i])
	}
	return ""
}

func (w *simWorkload) serviceCounts() map[string]float64 { return zeroServiceCounts() }

func (w *simWorkload) close() {}

// emitClock is a Runner sink that stamps the host time each result is
// delivered. With one worker the results arrive as each run finishes, so
// consecutive stamps bracket each Workload.Run.
type emitClock struct{ stamps []time.Time }

func (c *emitClock) Emit(rr ccsvm.RunResult) error {
	c.stamps[rr.Index] = time.Now()
	return nil
}

func (c *emitClock) Close() error { return nil }

// Machine work counts read from Result.Metrics: the counts are summed over
// a pass's simulations, the rates averaged over the simulations reporting
// them. A change to the simulator alone leaves all of them identical.
var (
	workCountKeys = []string{"sim.events", "noc.messages", "coherence.invalidations", "coherence.forwards",
		"dram.reads", "dram.writes", "mttop.instructions", "cpu.instructions"}
	workRateKeys = []string{"l1.hit_rate", "l2.hit_rate", "tlb.hit_rate"}
)

type workCounts struct {
	sums  map[string]float64
	rateN map[string]int
}

func newWorkCounts() workCounts {
	return workCounts{sums: map[string]float64{}, rateN: map[string]int{}}
}

func (w workCounts) add(m map[string]float64) {
	for _, k := range workCountKeys {
		w.sums[k] += m[k]
	}
	for _, k := range workRateKeys {
		if v, ok := m[k]; ok {
			w.sums[k] += v
			w.rateN[k]++
		}
	}
}

func (w workCounts) values() map[string]float64 {
	out := map[string]float64{}
	for _, k := range workCountKeys {
		out[k] = w.sums[k]
	}
	for _, k := range workRateKeys {
		if n := w.rateN[k]; n > 0 {
			out[k] = w.sums[k] / float64(n)
		} else {
			out[k] = 0
		}
	}
	return out
}

// Service counters read from resultcache.Stats and sweepd.Server.Stats.
var serviceKeys = []string{"resultcache.hit_ratio", "resultcache.disk_hits", "resultcache.stores",
	"sweepd.coalesced", "sweepd.rejected"}

func zeroServiceCounts() map[string]float64 {
	out := map[string]float64{}
	for _, k := range serviceKeys {
		out[k] = 0
	}
	return out
}
