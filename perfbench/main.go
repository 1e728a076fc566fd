// Command perfbench is the repository's benchmark. It measures the simulator
// and the sweep service end to end, from outside the program, on one of four
// workloads, checks every output it measures, and prints one JSON result as
// the last line of its standard output.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (the seed makes every input; every run starts with cold modelled
// caches, because each simulation builds a fresh machine):
//
//   - paper-sweep: the 14 paper points of cmd/ccsvm-bench through
//     ccsvm.Runner{Parallel: 1}. It is the traffic paper-figs users run, the
//     only workload that uses the APU layers (apu, opencl, cpu), and it builds
//     14 machines per pass, so machine-construction cost shows here only.
//   - ccsvm-readshare: matmul on the CCSVM machine, n=64. One long run on one
//     machine, mostly L1 hits; thread switches and engine dispatch dominate.
//   - ccsvm-writeshare: sparse on the CCSVM machine, n=96, density 0.06. The
//     same layers with write-heavy sharing, so the directory, forwarding,
//     invalidation, NoC and DRAM paths do the work; a change that speeds up
//     hits but slows misses shows here.
//   - serve-cache: sweepd.Server behind httptest on loopback with a
//     two-tier resultcache (LRU smaller than the hot set, disk tier in a fresh
//     directory) and two closed-loop clients. Nine in ten requests repeat a
//     seeded hot set of small specs (served by the LRU or the disk tier,
//     bypassing the simulator); one in ten is a spec not seen before, which
//     simulates and is stored.
//
// Every operation is checked. A simulation fails unless it returns no
// error, its result is Checked, its (sim_time_ps, sim_events, trace_hash)
// equals that of the warm-up pass and, at seed 42, the pinned triple. A
// serve-cache request fails unless its status is 200, its spec_hash is the
// spec's RunSpec.Hash, and its body equals the spec's first (miss) response
// byte for byte; a new spec's response must decode and be Checked.
//
// A request is one RunSpec asked for: each simulation of a sim workload's
// pass, or each HTTP request of serve-cache. With --trace 0 the run reports
// the end-to-end metrics, from passes measured for --seconds after set-up:
//
//   - setup_s: the median of three set-ups, each building specs, systems,
//     cache and server and ending with one checked warm-up pass;
//   - alloc_mb_per_pass: heap bytes allocated per pass, median over passes;
//   - peak_rss_mb: the process's resident-set high-water mark.
//
// Host-time throughput and latency are per-layer metrics, not end-to-end
// ones: on a shared two-vCPU host their run-to-run spread was 6-23% and two
// sets of runs a quarter of an hour apart differed by up to 42%, so they
// cannot be made to repeat within a tenth.
//
// With --trace 1 it makes a separate traced run that measures half the
// window untraced and half traced. From the untraced half it reports the
// host-time metrics: events_per_s and events_per_cpu_s (simulated engine
// events per wall and per process CPU second, median over passes; on
// serve-cache the events of the requests that simulated), req_per_s, and
// req_p50_us and miss_p50_ms (median latency of all requests and of those
// that simulated; on the sim workloads every request simulates), plus the
// serve-cache hit latencies. From the traced half: host CPU and
// allocated-byte shares per layer (host.*, alloc.*) from a CPU and a heap
// profile the process takes of itself, spans around each Runner run
// (run.<series>_ms) and each HTTP handler call (sweepd.handler_us,
// net.overhead_us), the machine and service work counts of the last pass,
// GC cycles per pass, host CPU ns per simulated event, and the tracing
// overhead as the traced half's events_per_s over the untraced half's. Then
// layer probes: timed calls into each layer's public functions, with
// allocations per call. Spans are kept in memory and written to
// .bench_build/spans/ when the run ends. A metric a workload does not
// exercise reads 0.
//
// The simulated results are checked, not scored: the repository holds no
// reference measurements, so the model is unvalidated and no error figure is
// given.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything a run writes, relative to the checkout root.
const buildDir = ".bench_build"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostInfo is printed beside every result.
type hostInfo struct {
	Workload    string `json:"workload"`
	Why         string `json:"why"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	Trace       bool   `json:"trace"`
	GoVersion   string `json:"go"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"nproc"`
	CPU         string `json:"cpu"`
	ColdCaches  bool   `json:"cold_modelled_caches"`
	SetupRounds int    `json:"setup_rounds"`
}

// setupRounds is how many times a run sets its workload up; setup_s is the
// median.
const setupRounds = 3

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 42, "seed for every generated input; the pinned results hold at 42")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 makes the traced run that reports per-layer metrics")
	flag.Parse()

	def, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {%s} --seed N --seconds S --trace 0|1\n",
			strings.Join(workloadNames(), ","))
		os.Exit(2)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, pins: pinnedResults}
	info := hostInfo{
		Workload: def.name, Why: def.why, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPU: cpuModel(), ColdCaches: true, SetupRounds: setupRounds,
	}
	var rep report
	var err error
	if *trace == 1 {
		rep, err = tracedRun(def, cfg)
	} else {
		rep, err = untracedRun(def, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		os.Exit(1)
	}
	hostLine, _ := json.Marshal(map[string]hostInfo{"host": info})
	fmt.Println(string(hostLine))
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runConfig is what a run takes from its command line.
type runConfig struct {
	seed   int64
	window time.Duration
	// pins are the expected (sim_time_ps, sim_events, trace_hash) per spec;
	// the self-test swaps in a wrong one.
	pins map[string]triple
}

// checks counts operations checked and failed across a run.
type checks struct{ attempted, failed int }

func (c *checks) add(attempted, failed int) {
	c.attempted += attempted
	c.failed += failed
}

func (c checks) report(m map[string]metric) report {
	return report{Correct: c.failed == 0 && c.attempted > 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}
}

// setUp builds the workload setupRounds times, keeping the last and closing
// the others, and returns it with the median set-up time.
func setUp(def workloadDef, cfg runConfig, ck *checks) (workload, time.Duration, error) {
	var times []float64
	var w workload
	for i := 0; i < setupRounds; i++ {
		if w != nil {
			w.close()
		}
		w = def.build(cfg)
		start := time.Now()
		res, err := w.setup()
		times = append(times, time.Since(start).Seconds())
		ck.add(res.attempted, res.failed)
		if err != nil {
			w.close()
			return nil, 0, err
		}
	}
	return w, time.Duration(median(times) * float64(time.Second)), nil
}

// sample is one measured pass.
type sample struct {
	wall, cpu time.Duration
	allocs    uint64
	res       passResult
}

// measure runs passes until the window has elapsed, and at least three.
func measure(w workload, window time.Duration, tr *tracer, ck *checks) []sample {
	var out []sample
	var ms runtime.MemStats
	begin := time.Now()
	for len(out) < 3 || time.Since(begin) < window {
		runtime.ReadMemStats(&ms)
		alloc0, cpu0, t0 := ms.TotalAlloc, cpuTime(), time.Now()
		res := w.pass(tr)
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		runtime.ReadMemStats(&ms)
		out = append(out, sample{wall: wall, cpu: cpu, allocs: ms.TotalAlloc - alloc0, res: res})
		ck.add(res.attempted, res.failed)
	}
	return out
}

// untracedRun measures the end-to-end metrics: set-up time and memory.
func untracedRun(def workloadDef, cfg runConfig) (report, error) {
	var ck checks
	w, setup, err := setUp(def, cfg, &ck)
	if err != nil {
		return report{}, err
	}
	defer w.close()
	var alloc []float64
	for _, s := range measure(w, cfg.window, nil, &ck) {
		alloc = append(alloc, float64(s.allocs)/(1<<20))
	}
	return ck.report(map[string]metric{
		"setup_s":           {setup.Seconds(), "s"},
		"alloc_mb_per_pass": {median(alloc), "MiB"},
		"peak_rss_mb":       {peakRSSMiB(), "MiB"},
	}), nil
}

// hostTime reduces measured passes to the throughput and latency metrics,
// each a median over passes or over pooled request latencies.
func hostTime(samples []sample) map[string]metric {
	var evWall, evCPU, reqRate []float64
	var reqLat, missLat []float64
	for _, s := range samples {
		evWall = append(evWall, s.res.events/s.wall.Seconds())
		evCPU = append(evCPU, s.res.events/s.cpu.Seconds())
		reqRate = append(reqRate, float64(len(s.res.reqLat))/s.wall.Seconds())
		reqLat = appendDurations(reqLat, s.res.reqLat)
		missLat = appendDurations(missLat, s.res.missLat)
	}
	return map[string]metric{
		"events_per_s":     {median(evWall), "1/s"},
		"events_per_cpu_s": {median(evCPU), "1/s"},
		"req_per_s":        {median(reqRate), "1/s"},
		"req_p50_us":       {median(reqLat) / 1e3, "us"},
		"miss_p50_ms":      {median(missLat) / 1e6, "ms"},
	}
}

func appendDurations(dst []float64, ds []time.Duration) []float64 {
	for _, d := range ds {
		dst = append(dst, float64(d))
	}
	return dst
}

// median returns the middle value (the mean of the middle two for an even
// count), or 0 for no values.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks, or 0 for no values. v is sorted in place.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuModel reads the host CPU model name, or "" where /proc/cpuinfo is absent.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			if i := strings.Index(rest, ":"); i >= 0 {
				return strings.TrimSpace(rest[i+1:])
			}
		}
	}
	return ""
}

// writeSpans writes a traced run's spans as one JSON document.
func writeSpans(name string, seed int64, spans []span) error {
	dir := filepath.Join(buildDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed)), doc, 0o644)
}
