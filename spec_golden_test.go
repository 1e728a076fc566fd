package ccsvm_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"ccsvm"
)

// The golden hash-stability suite: testdata/spec_hashes.json commits the
// content address of a spec for every (workload, system) pair, every preset,
// every override path of both machines, and a spread of parameter points.
// RunSpec.Hash keys the persistent result cache, so ANY drift in the
// canonical encoding — a reordered config field, a renamed parameter, a new
// normalization — silently poisons or orphans cached results unless it is
// paired with a SpecFormatVersion bump. This test makes that drift loud:
// regenerate the fixture ONLY together with a version bump, via
//
//	go test -run TestGoldenSpecHashes -update-spec-hashes .

var updateSpecHashes = flag.Bool("update-spec-hashes", false,
	"rewrite testdata/spec_hashes.json from the current encoding (pair with a SpecFormatVersion bump)")

// goldenSpecsPath is the committed fixture location.
const goldenSpecsPath = "testdata/spec_hashes.json"

// goldenEntry is one committed (spec → hash) pair. The spec is stored in its
// BuildSpec input form so the fixture is readable and re-resolvable.
type goldenEntry struct {
	Name      string       `json:"name"`
	Workload  string       `json:"workload"`
	System    string       `json:"system"`
	Preset    string       `json:"preset,omitempty"`
	Overrides []string     `json:"overrides,omitempty"`
	Params    goldenParams `json:"params"`
	Hash      string       `json:"hash"`
}

// goldenParams mirrors ccsvm.Params.
type goldenParams struct {
	N           int     `json:"n"`
	Density     float64 `json:"density"`
	Seed        int64   `json:"seed"`
	IncludeInit bool    `json:"include_init"`
}

// goldenValueFor picks a structurally valid override value for a path's
// declared type (the " type" suffix of ccsvm.OverridePaths entries).
// Validated enum fields need a real member rather than the generic
// placeholder of their type.
func goldenValueFor(path, typ string) string {
	if strings.HasSuffix(path, ".Coherence.Protocol") {
		return "mesi"
	}
	// A cache capacity must be whole lines and at least one set; 8 KiB is
	// a valid size for every array at its default associativity.
	if strings.HasSuffix(path, "Bytes") && !strings.Contains(path, ".DRAM.") {
		return "8192"
	}
	switch typ {
	case "bool":
		return "true"
	case "duration":
		return "5ns"
	case "float64":
		return "0.5"
	case "string":
		return "golden"
	default: // int, int8..int64, uint..uint64
		return "2"
	}
}

// goldenSpecs enumerates the fixture population deterministically.
func goldenSpecs(t *testing.T) []goldenEntry {
	t.Helper()
	p := ccsvm.DefaultParams()
	var entries []goldenEntry
	add := func(name, workload string, kind ccsvm.SystemKind, preset string, overrides []string, params ccsvm.Params) {
		spec, err := ccsvm.BuildSpec(workload, kind, preset, overrides, params)
		if err != nil {
			t.Fatalf("golden spec %q does not resolve: %v", name, err)
		}
		entries = append(entries, goldenEntry{
			Name:      name,
			Workload:  workload,
			System:    string(spec.System.Kind),
			Preset:    preset,
			Overrides: overrides,
			Params: goldenParams{N: params.N, Density: params.Density,
				Seed: params.Seed, IncludeInit: params.IncludeInit},
			Hash: spec.Hash().Hex(),
		})
	}

	// Every registered (workload, system) pair at paper-default params.
	for _, w := range ccsvm.Workloads() {
		for _, kind := range w.SystemKinds() {
			add(fmt.Sprintf("pair/%s/%s", w.Name, kind), w.Name, kind, "", nil, p)
		}
	}
	// Every preset on every system kind its machine runs, carried by the
	// first registered workload that supports the kind.
	workloadFor := func(kind ccsvm.SystemKind) string {
		for _, w := range ccsvm.Workloads() {
			if w.Supports(kind) {
				return w.Name
			}
		}
		t.Fatalf("no registered workload supports system %s", kind)
		return ""
	}
	for _, pr := range ccsvm.Presets() {
		for _, kind := range pr.Kinds() {
			add(fmt.Sprintf("preset/%s/%s", pr.Name, kind), workloadFor(kind), kind, pr.Name, nil, p)
		}
	}
	// Every override path of both machines, each as a single-override spec
	// on that machine's default matmul run.
	for _, machine := range []struct {
		kind ccsvm.MachineKind
		sys  ccsvm.SystemKind
	}{{ccsvm.MachineCCSVM, ccsvm.SystemCCSVM}, {ccsvm.MachineAPU, ccsvm.SystemCPU}} {
		for _, pathType := range ccsvm.OverridePaths(machine.kind) {
			path, typ, ok := strings.Cut(pathType, " ")
			if !ok {
				t.Fatalf("override path %q has no type suffix", pathType)
			}
			override := path + "=" + goldenValueFor(path, typ)
			add("override/"+path, "matmul", machine.sys, "", []string{override}, p)
		}
	}
	// Every coherence protocol on every CCSVM preset: the protocol dimension
	// must split the key space on every chip variant, not just the default.
	for _, pr := range ccsvm.Presets() {
		if pr.Machine != ccsvm.MachineCCSVM {
			continue
		}
		for _, proto := range ccsvm.Protocols() {
			add(fmt.Sprintf("protocol/%s/%s", pr.Name, proto), "matmul", ccsvm.SystemCCSVM, pr.Name,
				[]string{"ccsvm.coherence.protocol=" + proto}, p)
		}
	}
	// Parameter spread: size, seed, density (on the workload that reads it),
	// and the opencl init phase.
	for _, n := range []int{1, 8, 64} {
		pn := p
		pn.N = n
		add(fmt.Sprintf("params/n=%d", n), "matmul", ccsvm.SystemCCSVM, "", nil, pn)
	}
	for _, seed := range []int64{0, 1, 12345} {
		ps := p
		ps.Seed = seed
		add(fmt.Sprintf("params/seed=%d", seed), "matmul", ccsvm.SystemCCSVM, "", nil, ps)
	}
	for _, d := range []float64{0.01, 0.5} {
		pd := p
		pd.Density = d
		add(fmt.Sprintf("params/density=%g", d), "sparse", ccsvm.SystemCCSVM, "", nil, pd)
	}
	pi := p
	pi.IncludeInit = true
	add("params/include_init", "matmul", ccsvm.SystemOpenCL, "", nil, pi)
	return entries
}

// TestGoldenSpecHashes verifies every committed hash, and that the fixture
// population itself is unchanged (a grown config schema adds override
// entries, which must also arrive with a version bump).
func TestGoldenSpecHashes(t *testing.T) {
	current := goldenSpecs(t)

	if *updateSpecHashes {
		raw, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			t.Fatalf("marshal fixture: %v", err)
		}
		if err := os.WriteFile(goldenSpecsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatalf("write fixture: %v", err)
		}
		t.Logf("rewrote %s with %d entries at format v%d", goldenSpecsPath, len(current), ccsvm.SpecFormatVersion)
		return
	}

	raw, err := os.ReadFile(goldenSpecsPath)
	if err != nil {
		t.Fatalf("read fixture (generate with -update-spec-hashes): %v", err)
	}
	var committed []goldenEntry
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	byName := make(map[string]goldenEntry, len(committed))
	for _, e := range committed {
		byName[e.Name] = e
	}

	drift := false
	for _, e := range current {
		want, ok := byName[e.Name]
		if !ok {
			t.Errorf("spec %q is not in the fixture (schema grew?)", e.Name)
			drift = true
			continue
		}
		delete(byName, e.Name)
		if e.Hash != want.Hash {
			t.Errorf("spec %q hash drifted:\n  committed %s\n  current   %s", e.Name, want.Hash, e.Hash)
			drift = true
		}
	}
	for name := range byName {
		t.Errorf("fixture entry %q no longer generated (schema shrank?)", name)
		drift = true
	}
	if drift {
		t.Fatalf("canonical RunSpec encoding drifted from %s: persisted cache keys would go stale silently. "+
			"Bump ccsvm.SpecFormatVersion (currently %d) and regenerate with -update-spec-hashes.",
			goldenSpecsPath, ccsvm.SpecFormatVersion)
	}
}
