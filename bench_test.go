// Package ccsvm_test holds the benchmark harness: one testing.B benchmark per
// table/figure series of the paper's evaluation (see the experiment index in
// DESIGN.md). Every benchmark resolves its (workload, system) pair through
// the ccsvm registry, so the harness needs no knowledge of the per-system
// entry points. The benchmarks run small problem instances so `go test
// -bench` stays fast; cmd/paper-figs runs the full sweeps. Each benchmark
// reports the simulated time (sim_us) and off-chip traffic (dram_accesses) of
// the system it models alongside the host-time metrics Go reports natively.
package ccsvm_test

import (
	"fmt"
	"testing"

	"ccsvm"
)

const benchSeed = 42

// benchRun resolves workload/kind through the registry and runs it b.N times,
// reporting simulated time, off-chip traffic, allocations, and simulator
// throughput (engine events per host second — the headline number the hot
// path is optimized for; see ARCHITECTURE.md, "Hot path & pooling").
func benchRun(b *testing.B, workload string, kind ccsvm.SystemKind, p ccsvm.Params) {
	b.Helper()
	w, ok := ccsvm.Lookup(workload)
	if !ok {
		b.Fatalf("workload %q not registered", workload)
	}
	sys := ccsvm.MustSystem(kind)
	p.Seed = benchSeed
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
}

// Figure 5: dense matrix multiply.

func BenchmarkFig5MatMulCCSVM(b *testing.B) {
	benchRun(b, "matmul", ccsvm.SystemCCSVM, ccsvm.Params{N: 32})
}

func BenchmarkFig5MatMulAPUOpenCL(b *testing.B) {
	benchRun(b, "matmul", ccsvm.SystemOpenCL, ccsvm.Params{N: 32})
}

func BenchmarkFig5MatMulAPUCPU(b *testing.B) {
	benchRun(b, "matmul", ccsvm.SystemCPU, ccsvm.Params{N: 32})
}

// Figure 6: all-pairs shortest path.

func BenchmarkFig6APSPCCSVM(b *testing.B) {
	benchRun(b, "apsp", ccsvm.SystemCCSVM, ccsvm.Params{N: 20})
}

func BenchmarkFig6APSPAPUOpenCL(b *testing.B) {
	benchRun(b, "apsp", ccsvm.SystemOpenCL, ccsvm.Params{N: 20})
}

func BenchmarkFig6APSPAPUCPU(b *testing.B) {
	benchRun(b, "apsp", ccsvm.SystemCPU, ccsvm.Params{N: 20})
}

// Figure 7: Barnes-Hut.

func BenchmarkFig7BarnesHutCCSVM(b *testing.B) {
	benchRun(b, "barneshut", ccsvm.SystemCCSVM, ccsvm.Params{N: 96})
}

func BenchmarkFig7BarnesHutAPUCPU(b *testing.B) {
	benchRun(b, "barneshut", ccsvm.SystemCPU, ccsvm.Params{N: 96})
}

func BenchmarkFig7BarnesHutAPUPthreads(b *testing.B) {
	benchRun(b, "barneshut", ccsvm.SystemPthreads, ccsvm.Params{N: 96})
}

// Figure 8: sparse matrix multiply (size and density axes).

func BenchmarkFig8SparseSizeCCSVM(b *testing.B) {
	benchRun(b, "sparse", ccsvm.SystemCCSVM, ccsvm.Params{N: 48, Density: 0.02})
}

func BenchmarkFig8SparseSizeAPUCPU(b *testing.B) {
	benchRun(b, "sparse", ccsvm.SystemCPU, ccsvm.Params{N: 48, Density: 0.02})
}

func BenchmarkFig8SparseDensityCCSVM(b *testing.B) {
	benchRun(b, "sparse", ccsvm.SystemCCSVM, ccsvm.Params{N: 48, Density: 0.06})
}

// Figure 9: off-chip DRAM accesses. The benchmark runs the Figure 9 pair
// sweep through the Runner and reports each system's traffic; the
// assertion-level comparison lives in the workloads tests.

func BenchmarkFig9DRAMAccesses(b *testing.B) {
	specs := []ccsvm.RunSpec{
		{Workload: "matmul", System: ccsvm.MustSystem(ccsvm.SystemCCSVM), Params: ccsvm.Params{N: 32, Seed: benchSeed}},
		{Workload: "matmul", System: ccsvm.MustSystem(ccsvm.SystemOpenCL), Params: ccsvm.Params{N: 32, Seed: benchSeed}},
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
// run on a freshly built machine. The events/sec ratio between worker counts
// is the parallel-scaling trajectory cmd/ccsvm-bench records into
// BENCH_*.json as the scaling_w<N> series.
func BenchmarkRunnerScaling(b *testing.B) {
	// Four copies of every registered pair: enough runs per sweep that the
	// pool stays saturated at 16 workers.
	base := ccsvm.Pairs(ccsvm.Params{N: 16, Density: 0.05, Seed: benchSeed})
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

// Figures 3/4: vector-add offload cost by programming model.

func BenchmarkCodeComparisonVectorAddXthreads(b *testing.B) {
	benchRun(b, "vectoradd", ccsvm.SystemCCSVM, ccsvm.Params{N: 256})
}

func BenchmarkCodeComparisonVectorAddOpenCL(b *testing.B) {
	benchRun(b, "vectoradd", ccsvm.SystemOpenCL, ccsvm.Params{N: 256, IncludeInit: true})
}
