package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
)

// layers are the buckets host CPU time and allocated bytes are attributed
// to: the repository's modules, the Go runtime's scheduler, allocator plus
// collector, and map code, and everything else (the benchmark's own client
// code, net/http frames below no repository frame, internal/stats).
var layers = []string{"sim", "exec", "coherence", "noc", "cache", "vm", "mem", "dram", "cpu", "mttop",
	"core", "apu", "opencl", "workloads", "ccsvm", "resultcache", "sweepd",
	"go.sched", "go.gc", "go.maps", "other"}

// repoLayer maps a function name to its repository layer, or "" for a
// function outside the repository. The root package and internal/simarena
// form the ccsvm facade; the CCSVM machine's OS model, thread runtime and
// MTTOP interface device are part of core.
func repoLayer(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	if pkg == "ccsvm" {
		return "ccsvm"
	}
	name, ok := strings.CutPrefix(pkg, "ccsvm/internal/")
	if !ok {
		return ""
	}
	switch name {
	case "simarena":
		return "ccsvm"
	case "kernelos", "xthreads", "mifd":
		return "core"
	}
	for _, l := range layers {
		if l == name {
			return l
		}
	}
	return "other"
}

// Runtime functions by the bucket they are charged to. A name matches when
// it starts with "runtime." followed by one of the prefixes.
var (
	gcPrefixes = []string{"gc", "mallocgc", "newobject", "newarray", "makeslice", "growslice",
		"(*mheap)", "(*mcache)", "(*mcentral)", "(*mspan)", "(*gcWork)", "(*sweepLocked)", "(*pageAlloc)",
		"scanobject", "scanblock", "scanstack", "scanframe", "greyobject", "markroot", "markBits", "findObject",
		"bgsweep", "bgscavenge", "sweepone", "wbBuf", "bulkBarrier", "heapSetType", "nextFreeFast",
		"deductAssistCredit", "profilealloc", "mProf_", "_GC", "memclrNoHeapPointersChunked", "freeStackSpans"}
	mapPrefixes = []string{"map", "makemap", "(*hmap)", "evacuate", "growWork", "hashGrow",
		"memhash", "aeshash", "strhash", "interhash", "nilinterhash", "efaceHash"}
	schedPrefixes = []string{"schedule", "findRunnable", "park_m", "gopark", "goready", "ready", "chansend",
		"chanrecv", "selectgo", "mcall", "futex", "lock", "unlock", "notesleep", "notewakeup", "stopm", "startm",
		"wakep", "runq", "gogo", "goexit", "newproc", "usleep", "osyield", "netpoll", "casgstatus", "execute",
		"gosched", "goschedImpl", "semacquire", "semrelease", "systemstack", "morestack", "newstack", "copystack",
		"mstart", "resetspinning", "checkTimers", "(*timers)", "stealWork", "entersyscall", "exitsyscall",
		"reentersyscall", "_System", "send", "recv", "chanparkcommit", "goparkunlock", "acquirep", "releasep",
		"handoffp", "sysmon", "retake", "preempt", "asyncPreempt", "procyield", "closechan", "makechan",
		"sellock", "selunlock", "selparkcommit", "gfget", "gfput", "malg", "(*waitq)", "mPark", "templateThread",
		"injectglist", "globrunq", "pidle", "spinning"}
)

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/")
}

func matchRuntime(fn string, prefixes []string) bool {
	rest, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return false
	}
	for _, p := range prefixes {
		if strings.HasPrefix(rest, p) {
			return true
		}
	}
	return false
}

// bucketOf attributes one stack, innermost frame first. The runtime frames
// at the leaf decide first: collector and allocator work goes to go.gc, map
// code to go.maps, scheduler and channel work to go.sched. Otherwise the
// stack goes to its innermost repository frame, so other standard-library
// time is charged to the nearest calling repository package. Allocation
// stacks all begin in the allocator, so with alloc set the go.gc rule is
// skipped and the bytes go to whoever allocated them.
func bucketOf(frames []string, alloc bool) string {
	i := 0
	for i < len(frames) && isRuntime(frames[i]) {
		i++
	}
	leaf := frames[:i]
	if !alloc {
		for _, fn := range leaf {
			if matchRuntime(fn, gcPrefixes) {
				return "go.gc"
			}
		}
	}
	for _, fn := range leaf {
		if matchRuntime(fn, mapPrefixes) || strings.HasPrefix(fn, "internal/runtime/maps.") {
			return "go.maps"
		}
	}
	for _, fn := range leaf {
		if matchRuntime(fn, schedPrefixes) {
			return "go.sched"
		}
	}
	for _, fn := range frames {
		if l := repoLayer(fn); l != "" {
			return l
		}
	}
	return "other"
}

// shares turns per-bucket weights into fractions of their total.
func shares(w map[string]float64) map[string]float64 {
	var total float64
	for _, v := range w {
		total += v
	}
	out := map[string]float64{}
	for _, l := range layers {
		out[l] = safeDiv(w[l], total)
	}
	return out
}

// cpuByLayer reduces a CPU profile, as runtime/pprof writes it, to the
// share of CPU time per layer.
func cpuByLayer(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	w := map[string]float64{}
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range p.locations[loc] {
				frames = append(frames, p.strings[p.functions[fn]])
			}
		}
		w[bucketOf(frames, false)] += float64(s.value)
	}
	return shares(w), nil
}

// heapSnapshot is the allocated bytes per allocation stack, as of the last
// completed collection.
type heapSnapshot map[[32]uintptr]int64

func takeHeapSnapshot() heapSnapshot {
	// The memory profile publishes a cycle's allocations only after the
	// next collection completes.
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := heapSnapshot{}
	for _, r := range recs[:n] {
		out[r.Stack0] += r.AllocBytes
	}
	return out
}

// allocByLayer attributes the bytes allocated between two snapshots.
func allocByLayer(before, after heapSnapshot) map[string]float64 {
	w := map[string]float64{}
	for stk, bytes := range after {
		delta := bytes - before[stk]
		if delta <= 0 {
			continue
		}
		var frames []string
		pcs := stk[:]
		for i, pc := range pcs {
			if pc == 0 {
				pcs = pcs[:i]
				break
			}
		}
		it := runtime.CallersFrames(pcs)
		for {
			f, more := it.Next()
			frames = append(frames, f.Function)
			if !more {
				break
			}
		}
		w[bucketOf(frames, true)] += float64(delta)
	}
	return shares(w)
}

// profile is the part of a pprof profile the reduction needs: for each
// sample its location IDs (leaf first) and CPU value, for each location its
// function IDs (innermost inlined frame first), and function names.
type profile struct {
	strings   []string
	functions map[uint64]uint64   // function ID -> name string index
	locations map[uint64][]uint64 // location ID -> function IDs
	samples   []profSample
}

type profSample struct {
	locs  []uint64
	value int64
}

// parseProfile decodes a gzipped pprof protocol buffer (profile.proto). The
// last sample value is used; in a CPU profile that is CPU nanoseconds.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{functions: map[uint64]uint64{}, locations: map[uint64][]uint64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s profSample
			var vals []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name >= uint64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protocol buffer")

// eachField calls fn for every field of a protocol-buffer message: v holds
// a varint's value, b a length-delimited field's bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			b = b[size:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errors.New("unsupported protocol-buffer wire type")
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed (b) or not (v).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
