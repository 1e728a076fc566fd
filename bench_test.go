// Package ccsvm_test holds the benchmark harness: BenchmarkPaperSeries times
// every paper series that testdata/paper_triples.json lists (one
// sub-benchmark per series, named by the fixture's name), and two Runner
// benchmarks time the sweep path. Every series resolves its (workload,
// system) pair through the ccsvm registry, so the harness needs no knowledge
// of the per-system entry points. The series run small problem instances so
// `go test -bench` stays fast; cmd/paper-figs runs the full sweeps. Each
// series reports the simulated time (sim_us) and off-chip traffic
// (dram_accesses) of the system it models alongside the host-time metrics Go
// reports natively.
package ccsvm_test

import (
	"fmt"
	"testing"

	"ccsvm"
)

// BenchmarkPaperSeries runs each paper series b.N times, reporting simulated
// time, off-chip traffic, allocations, and simulator throughput (engine
// events per host second — the headline number the hot path is optimized
// for; see ARCHITECTURE.md, "Hot path & pooling").
func BenchmarkPaperSeries(b *testing.B) {
	for _, s := range loadPaperSeries(b) {
		b.Run(s.Name, func(b *testing.B) {
			w, sys, p := s.resolve(b)
			b.ReportAllocs()
			var last ccsvm.Result
			var events float64
			for i := 0; i < b.N; i++ {
				r, err := w.Run(sys, p)
				if err != nil {
					b.Fatal(err)
				}
				last = r
				events += r.Metrics["sim.events"]
			}
			b.StopTimer()
			b.ReportMetric(float64(last.Time)/1e6, "sim_us/op")
			b.ReportMetric(float64(last.DRAMAccesses), "dram_accesses/op")
			b.ReportMetric(events/float64(b.N), "sim_events/op")
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(events/sec, "sim_events/sec")
			}
		})
	}
}

// Figure 9: off-chip DRAM accesses. The benchmark runs the Figure 9 pair
// sweep through the Runner and reports each system's traffic; the
// assertion-level comparison lives in the workloads tests.

func BenchmarkFig9DRAMAccesses(b *testing.B) {
	specs := []ccsvm.RunSpec{
		{Workload: "matmul", System: ccsvm.MustSystem(ccsvm.SystemCCSVM), Params: ccsvm.Params{N: 32, Seed: paperTripleSeed}},
		{Workload: "matmul", System: ccsvm.MustSystem(ccsvm.SystemOpenCL), Params: ccsvm.Params{N: 32, Seed: paperTripleSeed}},
	}
	runner := &ccsvm.Runner{Parallel: 2}
	b.ReportAllocs()
	var last []ccsvm.RunResult
	for i := 0; i < b.N; i++ {
		res, err := runner.Run(specs)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last[0].Result.DRAMAccesses), "ccsvm_dram/op")
	b.ReportMetric(float64(last[1].Result.DRAMAccesses), "apu_dram/op")
}

// BenchmarkRunnerScaling measures sweep throughput through the Runner's
// worker pool: the same batch of paper-pair specs at 1/2/4/8/16 workers, each
// run on a freshly built machine. Worker counts above GOMAXPROCS add no
// cores, so compare events/sec across worker counts only on a host with at
// least as many CPUs.
func BenchmarkRunnerScaling(b *testing.B) {
	// Four copies of every registered pair: enough runs per sweep that the
	// pool stays saturated at 16 workers.
	base := ccsvm.Pairs(ccsvm.Params{N: 16, Density: 0.05, Seed: paperTripleSeed})
	var specs []ccsvm.RunSpec
	for i := 0; i < 4; i++ {
		specs = append(specs, base...)
	}
	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			runner := &ccsvm.Runner{Parallel: workers}
			b.ReportAllocs()
			var events float64
			for i := 0; i < b.N; i++ {
				res, err := runner.Run(specs)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range res {
					events += r.Result.Metrics["sim.events"]
				}
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(events/sec, "sim_events/sec")
			}
		})
	}
}
