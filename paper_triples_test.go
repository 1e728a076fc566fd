package ccsvm_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"ccsvm"
)

// The determinism oracle: testdata/paper_triples.json commits the
// (sim_time_ps, sim_events, trace_hash) triple of every paper series at
// seed 42. Same-seed runs are bit-identical by contract, so any drift in a
// triple is a change to the simulated machine or to the engine's event
// order, never noise. A deliberate model change re-pins the fixture in one
// reviewed diff via
//
//	go test -run TestPaperSeriesTriples -update-paper-triples .

var updatePaperTriples = flag.Bool("update-paper-triples", false,
	"rewrite testdata/paper_triples.json from the current simulator (only for a deliberate model change)")

// paperTriplesPath is the committed fixture location.
const paperTriplesPath = "testdata/paper_triples.json"

// paperTripleSeed is the seed every pinned series runs at.
const paperTripleSeed = 42

// paperTriple is one committed series: the parameters it runs with and its
// fingerprint. The fixture is the series list (the points cmd/ccsvm-bench
// runs: the paper's figures and the vectoradd code example); a new series is
// added there by hand with zero triple fields and pinned with
// -update-paper-triples, which rewrites only the three triple fields.
type paperTriple struct {
	Name        string  `json:"name"`
	Workload    string  `json:"workload"`
	System      string  `json:"system"`
	N           int     `json:"n"`
	Density     float64 `json:"density,omitempty"`
	IncludeInit bool    `json:"include_init,omitempty"`
	SimTimePs   int64   `json:"sim_time_ps"`
	SimEvents   uint64  `json:"sim_events"`
	TraceHash   string  `json:"trace_hash"`
}

// runPaperTriple simulates one series and fills in its fingerprint.
func runPaperTriple(t *testing.T, s paperTriple) paperTriple {
	t.Helper()
	w, ok := ccsvm.Lookup(s.Workload)
	if !ok {
		t.Fatalf("%s: workload %q not registered", s.Name, s.Workload)
	}
	r, err := w.Run(ccsvm.MustSystem(ccsvm.SystemKind(s.System)), ccsvm.Params{
		N: s.N, Density: s.Density, Seed: paperTripleSeed, IncludeInit: s.IncludeInit,
	})
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	if !r.Checked {
		t.Fatalf("%s: functional output not verified", s.Name)
	}
	hi := uint64(r.Metrics["sim.trace_hash_hi"])
	lo := uint64(r.Metrics["sim.trace_hash_lo"])
	s.SimTimePs = int64(r.Time)
	s.SimEvents = uint64(r.Metrics["sim.events"])
	s.TraceHash = fmt.Sprintf("%016x", hi<<32|lo)
	return s
}

// TestPaperSeriesTriples runs every series the fixture lists and requires
// its triple to equal the committed one.
func TestPaperSeriesTriples(t *testing.T) {
	raw, err := os.ReadFile(paperTriplesPath)
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	var committed []paperTriple
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	if len(committed) == 0 {
		t.Fatalf("%s lists no series", paperTriplesPath)
	}
	current := make([]paperTriple, len(committed))
	for i, s := range committed {
		current[i] = runPaperTriple(t, s)
	}

	if *updatePaperTriples {
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
		if want := committed[i]; got != want {
			t.Errorf("%s drifted:\n  committed %+v\n  current   %+v", got.Name, want, got)
		}
	}
}
