package ccsvm_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"ccsvm"
)

// The determinism oracle: testdata/paper_triples.json commits the
// (sim_time_ps, sim_events, trace_hash) triple of every paper series at
// seed 42, and the allocations of one warm run of it. Same-seed runs are
// bit-identical by contract, so any drift in a triple is a change to the
// simulated machine or to the engine's event order, never noise. A
// deliberate model change, or a change that cuts allocations, re-pins the
// fixture in one reviewed diff via
//
//	go test -run TestPaperSeriesTriples -update-paper-triples .

var updatePaperTriples = flag.Bool("update-paper-triples", false,
	"rewrite the measured fields of testdata/paper_triples.json from the current simulator (only for a deliberate model or allocation change)")

// paperTriplesPath is the committed fixture location.
const paperTriplesPath = "testdata/paper_triples.json"

// paperTripleSeed is the seed every paper series runs at, in the test and
// in the benchmarks.
const paperTripleSeed = 42

// A warm run of a series fails when it allocates more than
// pinned*(1+allocsTolerance)+allocsSlack objects. Warm repeats of one series
// differ by under 1%, so the tolerance absorbs host noise while a 10% growth
// fails; the slack keeps series with few allocations from failing on a
// handful of runtime-internal ones.
const (
	allocsTolerance = 0.05
	allocsSlack     = 16
)

// paperSeries is one committed series: the parameters it runs with and its
// measured fields. The fixture is the series list (the paper's figures and
// the vectoradd code example); a new series is added there by hand with zero
// measured fields and pinned with -update-paper-triples, which rewrites only
// the four measured fields.
type paperSeries struct {
	Name        string  `json:"name"`
	Workload    string  `json:"workload"`
	System      string  `json:"system"`
	N           int     `json:"n"`
	Density     float64 `json:"density,omitempty"`
	IncludeInit bool    `json:"include_init,omitempty"`
	SimTimePs   int64   `json:"sim_time_ps"`
	SimEvents   uint64  `json:"sim_events"`
	TraceHash   string  `json:"trace_hash"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
}

// loadPaperSeries reads the fixture: the one list of paper series, which
// TestPaperSeriesTriples pins and BenchmarkPaperSeries times.
func loadPaperSeries(tb testing.TB) []paperSeries {
	tb.Helper()
	raw, err := os.ReadFile(paperTriplesPath)
	if err != nil {
		tb.Fatalf("read fixture: %v", err)
	}
	var series []paperSeries
	if err := json.Unmarshal(raw, &series); err != nil {
		tb.Fatalf("parse fixture: %v", err)
	}
	if len(series) == 0 {
		tb.Fatalf("%s lists no series", paperTriplesPath)
	}
	return series
}

// resolve looks s up in the registry, so that callers can run it repeatedly
// without paying for the lookup each time.
func (s paperSeries) resolve(tb testing.TB) (*ccsvm.Workload, ccsvm.System, ccsvm.Params) {
	tb.Helper()
	w, ok := ccsvm.Lookup(s.Workload)
	if !ok {
		tb.Fatalf("%s: workload %q not registered", s.Name, s.Workload)
	}
	return w, ccsvm.MustSystem(ccsvm.SystemKind(s.System)), ccsvm.Params{
		N: s.N, Density: s.Density, Seed: paperTripleSeed, IncludeInit: s.IncludeInit,
	}
}

// runChecked simulates one run of a series and requires its functional
// output to have been verified.
func runChecked(t *testing.T, name string, w *ccsvm.Workload, sys ccsvm.System, p ccsvm.Params) ccsvm.Result {
	t.Helper()
	r, err := w.Run(sys, p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !r.Checked {
		t.Fatalf("%s: functional output not verified", name)
	}
	return r
}

// withTriple returns s with its triple taken from r.
func (s paperSeries) withTriple(r ccsvm.Result) paperSeries {
	hi := uint64(r.Metrics["sim.trace_hash_hi"])
	lo := uint64(r.Metrics["sim.trace_hash_lo"])
	s.SimTimePs = int64(r.Time)
	s.SimEvents = uint64(r.Metrics["sim.events"])
	s.TraceHash = fmt.Sprintf("%016x", hi<<32|lo)
	return s
}

// measurePaperSeries runs s twice and fills in its measured fields. The
// first run gives the triple. The second run, bracketed by
// runtime.ReadMemStats, gives allocs_per_op and must repeat the triple. A
// first run allocates more than later ones (3.6% more on
// fig5_matmul_apu_opencl), so it is not the one counted.
func measurePaperSeries(t *testing.T, s paperSeries) paperSeries {
	t.Helper()
	w, sys, p := s.resolve(t)
	first := s.withTriple(runChecked(t, s.Name, w, sys, p))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := runChecked(t, s.Name, w, sys, p)
	runtime.ReadMemStats(&after)
	warm := s.withTriple(r)
	if warm != first {
		t.Errorf("%s: a second run in one process drifted:\n  first  %+v\n  second %+v", s.Name, first, warm)
	}
	warm.AllocsPerOp = after.Mallocs - before.Mallocs
	return warm
}

// TestPaperSeriesTriples runs every series the fixture lists and requires
// its triple to equal the committed one and, outside -race builds, its warm
// run to stay within the allocation ceiling of the committed allocs_per_op.
// The race detector's instrumentation allocates (up to 11% more on
// fig6_apsp_apu_opencl), so a -race build checks the triples only.
//
// runtime.MemStats counts the whole process, so nothing may simulate
// concurrently with the measured run: this test and the other top-level
// tests of the package stay sequential (no top-level t.Parallel).
func TestPaperSeriesTriples(t *testing.T) {
	committed := loadPaperSeries(t)
	current := make([]paperSeries, len(committed))
	for i, s := range committed {
		current[i] = measurePaperSeries(t, s)
	}

	if *updatePaperTriples {
		if raceEnabled {
			t.Fatal("-update-paper-triples pins allocs_per_op, so it must run without -race")
		}
		raw, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			t.Fatalf("marshal fixture: %v", err)
		}
		if err := os.WriteFile(paperTriplesPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatalf("write fixture: %v", err)
		}
		t.Logf("re-pinned %d series in %s", len(current), paperTriplesPath)
		return
	}

	for i, got := range current {
		want := committed[i]
		allocs := got.AllocsPerOp
		got.AllocsPerOp = want.AllocsPerOp
		if got != want {
			t.Errorf("%s drifted:\n  committed %+v\n  current   %+v", got.Name, want, got)
		}
		if raceEnabled {
			continue
		}
		if limit := uint64(float64(want.AllocsPerOp)*(1+allocsTolerance)) + allocsSlack; allocs > limit {
			t.Errorf("%s: a warm run allocates %d objects, over the ceiling %d (pinned %d)",
				got.Name, allocs, limit, want.AllocsPerOp)
		}
	}
}
