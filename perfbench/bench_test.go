package main

// The benchmark's self-test: every workload's checks pass at a tiny size,
// the checks catch a wrong pinned fingerprint and a corrupted response, and
// the untraced and traced runs report exactly the metrics BENCHMARK.json
// names. Run it from this directory with `go test`.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// tinySeries is a small sweep over all four system kinds.
var tinySeries = []series{
	{"tiny_matmul_ccsvm", "matmul", "ccsvm", 8, 0, false},
	{"tiny_vectoradd_opencl", "vectoradd", "opencl", 16, 0, true},
	{"tiny_sparse_cpu", "sparse", "cpu", 16, 0.1, false},
	{"tiny_barneshut_pthreads", "barneshut", "pthreads", 8, 0, false},
}

func tinyConfig() runConfig {
	return runConfig{seed: 42, window: time.Millisecond, pins: pinnedResults}
}

// inBuildDir runs the test from a temporary checkout root, where the
// benchmark writes its .bench_build directory.
func inBuildDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	if err := os.Mkdir(buildDir, 0o755); err != nil {
		t.Fatal(err)
	}
}

// runWorkload sets w up and measures three passes.
func runWorkload(t *testing.T, w workload) checks {
	t.Helper()
	var ck checks
	res, err := w.setup()
	if err != nil {
		t.Fatal(err)
	}
	ck.add(res.attempted, res.failed)
	measure(w, time.Millisecond, nil, &ck)
	return ck
}

func TestTinyWorkloadsPassChecks(t *testing.T) {
	inBuildDir(t)
	for _, w := range []workload{newSimWorkload(tinyConfig(), tinySeries), newServeWorkload(tinyConfig())} {
		ck := runWorkload(t, w)
		w.close()
		if ck.failed != 0 || ck.attempted == 0 {
			t.Errorf("%T: %d of %d operations failed", w, ck.failed, ck.attempted)
		}
	}
}

func TestWrongPinIsCountedFailed(t *testing.T) {
	cfg := tinyConfig()
	cfg.pins = map[string]triple{pinKey(tinySeries[0], 42): {1, 2, "0000000000000000"}}
	ck := runWorkload(t, newSimWorkload(cfg, tinySeries))
	// One of the four specs fails in the warm-up and in each of three passes.
	if want := 4; ck.failed != want {
		t.Errorf("failed = %d of %d, want %d", ck.failed, ck.attempted, want)
	}
}

func TestPinnedPaperPointsMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full paper sweep")
	}
	w := newSimWorkload(tinyConfig(), paperSeries)
	res, err := w.setup()
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted != len(paperSeries) {
		t.Errorf("paper sweep: %d of %d runs failed", res.failed, res.attempted)
	}
}

func TestCorruptedResponseIsCountedFailed(t *testing.T) {
	inBuildDir(t)
	w := newServeWorkload(tinyConfig())
	// Flip one byte of every response served from the cache; first
	// (simulated) responses pass through untouched.
	w.wrap = func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if rec.Header().Get("X-Ccsvm-Cache") == "hit" && len(body) > 10 {
				body[10] ^= 1
			}
			for k, v := range rec.Header() {
				rw.Header()[k] = v
			}
			rw.WriteHeader(rec.Code)
			rw.Write(body)
		})
	}
	ck := runWorkload(t, w)
	w.close()
	hits := int(w.cache.Stats().MemHits + w.cache.Stats().DiskHits)
	if hits == 0 || ck.failed != hits {
		t.Errorf("failed = %d, want one per cache hit (%d)", ck.failed, hits)
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		alloc  bool
		want   string
	}{
		{[]string{"runtime.mallocgc", "runtime.newobject", "ccsvm/internal/cache.NewArray"}, false, "go.gc"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "ccsvm/internal/cache.NewArray"}, true, "cache"},
		{[]string{"runtime.chanrecv1", "ccsvm/internal/exec.(*Thread).park"}, false, "go.sched"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "ccsvm/internal/vm.(*TLB).Lookup"}, false, "go.maps"},
		{[]string{"runtime.memmove", "encoding/json.Marshal", "ccsvm/internal/sweepd.marshalRunResponse"}, false, "sweepd"},
		{[]string{"ccsvm/internal/simarena.(*Arena).Engine", "ccsvm.(*Runner).runOne"}, false, "ccsvm"},
		{[]string{"ccsvm/internal/kernelos.(*Kernel).Fault"}, false, "core"},
		{[]string{"net/http.(*conn).serve"}, false, "other"},
	} {
		if got := bucketOf(c.frames, c.alloc); got != c.want {
			t.Errorf("bucketOf(%v, alloc=%v) = %s, want %s", c.frames, c.alloc, got, c.want)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the metric sets are checked
// against.
type benchmarkSpec struct {
	EndToEnd []struct{ Name string } `json:"end_to_end"`
	PerLayer []struct{ Name string } `json:"per_layer"`
}

func names(list []struct{ Name string }) []string {
	var out []string
	for _, m := range list {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d\n got %v\nwant %v", what, len(got), len(want), got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: metric %q, BENCHMARK.json has %q", what, got[i], want[i])
		}
	}
}

func TestReportsEveryNamedMetric(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(doc, &spec); err != nil {
		t.Fatal(err)
	}
	inBuildDir(t)
	tiny := workloadDef{name: "tiny", build: func(cfg runConfig) workload { return newSimWorkload(cfg, tinySeries) }}
	rep, err := untracedRun(tiny, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Errorf("untraced run: %d of %d failed", rep.Failed, rep.Attempted)
	}
	sameNames(t, "untraced run", keys(rep.Metrics), names(spec.EndToEnd))
	for k, m := range rep.Metrics {
		if m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", k, m.Value)
		}
	}
	if testing.Short() {
		return
	}
	rep, err = tracedRun(tiny, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	sameNames(t, "traced run", keys(rep.Metrics), names(spec.PerLayer))
}
