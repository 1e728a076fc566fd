package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"time"

	"ccsvm"
	"ccsvm/internal/apu"
	"ccsvm/internal/cache"
	"ccsvm/internal/coherence"
	"ccsvm/internal/core"
	"ccsvm/internal/dram"
	"ccsvm/internal/exec"
	"ccsvm/internal/mem"
	"ccsvm/internal/noc"
	"ccsvm/internal/sim"
	"ccsvm/internal/stats"
	"ccsvm/internal/vm"
)

// Layer probes time calls into each layer's public functions, one layer
// boundary per probe, and count the heap allocations per call.
const (
	probeTarget = 20 * time.Millisecond // length of one timed repetition
	probeReps   = 5                     // repetitions; the median is reported
)

// probe calibrates n so that do(n) takes about probeTarget, then times
// probeReps repetitions and returns the median ns per call, the allocations
// per call and the bytes allocated per call.
func probe(do func(n int)) (ns, allocs, bytes float64) {
	n := 1
	for {
		start := time.Now()
		do(n)
		el := time.Since(start)
		if el >= probeTarget/4 || n >= 1<<30 {
			n = max(1, int(float64(n)*float64(probeTarget)/float64(max(el, time.Microsecond))))
			break
		}
		n *= 4
	}
	var times []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for r := 0; r < probeReps; r++ {
		start := time.Now()
		do(n)
		times = append(times, float64(time.Since(start))/float64(n))
	}
	runtime.ReadMemStats(&ms1)
	calls := float64(n * probeReps)
	return median(times), float64(ms1.Mallocs-ms0.Mallocs) / calls, float64(ms1.TotalAlloc-ms0.TotalAlloc) / calls
}

// runProbes runs every layer probe. Times are reported as <name>_ns or
// <name>_us and allocations as <name>_allocs.
func runProbes() (map[string]metric, error) {
	out := map[string]metric{}
	timed := func(name, unit string, do func(n int)) {
		ns, allocs, _ := probe(do)
		scale := 1.0
		if unit == "us" {
			scale = 1e3
		}
		out[name+"_"+unit] = metric{ns / scale, unit}
		out[name+"_allocs"] = metric{allocs, "count"}
	}
	timed("sim.at_step", "ns", engineProbe(sim.Duration(1000)))
	timed("sim.at_step_far", "ns", engineProbe(sim.Duration(10*sim.Microsecond)))
	timed("exec.self_op", "ns", execProbe(1))
	timed("exec.switch", "ns", execProbe(2))
	timed("coherence.l1_hit", "ns", coherenceProbe(coherence.ProtocolMOESI, false))
	timed("coherence.miss3", "ns", coherenceProbe(coherence.ProtocolMOESI, true))
	timed("coherence.miss4", "ns", coherenceProbe(coherence.ProtocolMESI, true))
	timed("noc.hop", "ns", nocProbe())
	timed("cache.lookup", "ns", cacheProbe())
	timed("vm.tlb_hit", "ns", tlbProbe(false))
	timed("vm.tlb_miss", "ns", tlbProbe(true))
	timed("mem.frame_rw", "ns", physProbe())
	for _, mp := range []struct {
		name string
		do   func(n int)
	}{
		{"core.new_machine", func(n int) {
			for i := 0; i < n; i++ {
				core.NewMachine(core.DefaultConfig()).Shutdown()
			}
		}},
		{"apu.new_machine", func(n int) {
			for i := 0; i < n; i++ {
				apu.NewMachine(apu.DefaultConfig()).Shutdown()
			}
		}},
	} {
		ns, allocs, bytes := probe(mp.do)
		out[mp.name+"_us"] = metric{ns / 1e3, "us"}
		out[mp.name+"_kb"] = metric{bytes / 1024, "KiB"}
		out[mp.name+"_allocs"] = metric{allocs, "count"}
	}
	if err := cacheProbes(timed); err != nil {
		return nil, err
	}
	spec := ccsvm.RunSpec{Workload: "matmul", System: ccsvm.MustSystem(ccsvm.SystemCCSVM),
		Params: ccsvm.Params{N: 32, Seed: 42}}
	timed("spec.hash", "us", func(n int) {
		for i := 0; i < n; i++ {
			spec.Hash()
		}
	})
	return out, nil
}

// engineProbe times one schedule plus one dispatch with 64 events pending,
// each firing event rescheduling itself delay later: within the calendar
// ring for short delays, in the overflow heap for long ones.
func engineProbe(delay sim.Duration) func(n int) {
	return func(n int) {
		e := sim.NewEngine()
		var fire func()
		fire = func() { e.Schedule(delay, fire) }
		for i := 0; i < 64; i++ {
			e.Schedule(delay*sim.Duration(i+1)/64, fire)
		}
		for i := 0; i < n; i++ {
			e.Step()
		}
	}
}

// probeCore drives one thread the way a core model does: each published
// operation completes one picosecond later, from an engine event.
type probeCore struct {
	eng     *sim.Engine
	th      *exec.Thread
	fetchFn func()
	doneFn  func()
}

func (c *probeCore) fetch() {
	if _, st := c.th.TryNext(c.fetchFn); st == exec.NextOp {
		c.eng.Schedule(sim.Picosecond, c.doneFn)
	}
}

func (c *probeCore) done() {
	c.th.Complete(exec.Result{})
	c.fetch()
}

// execProbe times one operation of a thread. With one thread every
// completion is the running thread's own; with two, completions alternate
// between them, so each is a cross-thread hand-off.
func execProbe(threads int) func(n int) {
	return func(n int) {
		eng := sim.NewEngine()
		g := exec.NewGate()
		g.Bind(eng)
		ops := max(1, n/threads)
		for t := 0; t < threads; t++ {
			c := &probeCore{eng: eng}
			c.fetchFn, c.doneFn = c.fetch, c.done
			c.th = exec.NewThread(g, t, "probe", func(ctx *exec.Context) {
				for i := 0; i < ops; i++ {
					ctx.Compute(1)
				}
			})
			c.th.Start()
			eng.Schedule(0, c.fetchFn)
		}
		g.Drive(eng.Step)
	}
}

// cohSystem is two L1 controllers and one directory bank on a torus, the
// smallest machine with real three- and four-hop misses.
type cohSystem struct {
	eng  *sim.Engine
	l1s  [2]*coherence.L1Controller
	done func()
}

func newCohSystem(proto *coherence.Protocol) *cohSystem {
	eng := sim.NewEngine()
	reg := stats.NewRegistry("probe")
	place := map[noc.NodeID]noc.Coord{0: {X: 0, Y: 0}, 1: {X: 1, Y: 0}, 2: {X: 2, Y: 0}}
	torus := noc.NewTorus(eng, noc.DefaultTorusConfig(4, 1), place, reg)
	memory := dram.NewController(eng, dram.DefaultCCSVMConfig(), reg, "dram")
	banks := coherence.InterleaveBanks([]noc.NodeID{2})
	s := &cohSystem{eng: eng, done: func() {}}
	checker := coherence.NewChecker()
	for i := range s.l1s {
		name := fmt.Sprintf("l1.%d", i)
		s.l1s[i] = coherence.NewL1Controller(eng, noc.NodeID(i), torus, banks, coherence.L1Config{
			Cache: cache.Config{SizeBytes: 32 * 1024, Assoc: 4, Name: name}, HitLatency: 690 * sim.Picosecond,
			Name: name, Protocol: proto}, checker, reg)
	}
	coherence.NewDirectoryBank(eng, 2, torus, coherence.BankConfig{
		L2: cache.Config{SizeBytes: 256 * 1024, Assoc: 16, Name: "l2"}, AccessLatency: 3400 * sim.Picosecond,
		Name: "l2", Protocol: proto}, memory, reg)
	return s
}

func (s *cohSystem) access(core int, t mem.AccessType, addr mem.PAddr) {
	s.l1s[core].Access(mem.Request{Type: t, Addr: addr, Size: 8, Requestor: core}, s.done)
	s.eng.Run()
}

// coherenceProbe times one L1 access run to quiescence: a read hit, or with
// migrate set a write that takes the line from the other L1's Modified copy
// (a three-hop miss under MOESI, four hops under MESI).
func coherenceProbe(proto *coherence.Protocol, migrate bool) func(n int) {
	s := newCohSystem(proto)
	const addr = mem.PAddr(0x4000)
	s.access(0, mem.Write, addr)
	s.access(1, mem.Write, addr)
	return func(n int) {
		for i := 0; i < n; i++ {
			if migrate {
				s.access(i&1, mem.Write, addr)
			} else {
				s.access(1, mem.Read, addr)
			}
		}
	}
}

type nullReceiver struct{}

func (nullReceiver) Receive(*noc.Message) {}

// nocProbe times a control message across the 8x8 torus corner to centre,
// per hop.
func nocProbe() func(n int) {
	eng := sim.NewEngine()
	place := map[noc.NodeID]noc.Coord{0: {X: 0, Y: 0}, 1: {X: 4, Y: 4}}
	torus := noc.NewTorus(eng, noc.DefaultTorusConfig(8, 8), place, stats.NewRegistry("probe"))
	torus.Attach(0, nullReceiver{})
	torus.Attach(1, nullReceiver{})
	hops := torus.HopCount(0, 1)
	return func(n int) {
		msgs := max(1, n/hops)
		for i := 0; i < msgs; i++ {
			m := torus.NewMessage()
			m.Src, m.Dst, m.SizeBytes = 0, 1, 16
			torus.Send(m)
			eng.Run()
		}
	}
}

// cacheProbe times a lookup of a resident line in a 32 KiB 4-way array.
func cacheProbe() func(n int) {
	a := cache.NewArray(cache.Config{SizeBytes: 32 * 1024, Assoc: 4, Name: "probe"})
	const lines = 256
	for i := 0; i < lines; i++ {
		l, _, _, _ := a.Allocate(mem.LineAddr(i * 7))
		l.State = cache.Shared
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			if a.Lookup(mem.LineAddr(i%lines*7)) == nil {
				panic("probe: resident line missing")
			}
		}
	}
}

// tlbProbe times a lookup in a 64-entry TLB over distinct pages: all hits,
// or with miss set always a miss followed by the refill.
func tlbProbe(miss bool) func(n int) {
	t := vm.NewTLB(vm.TLBConfig{Entries: 64, Name: "probe"}, stats.NewRegistry("probe"))
	pages := 64
	if miss {
		pages = 128
	}
	for i := 0; i < 64; i++ {
		t.Insert(mem.PageNumber(i).Addr(), mem.FrameNumber(i), true)
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			va := mem.PageNumber(i % pages).Addr()
			if _, _, ok := t.Lookup(va); !ok {
				t.Insert(va, mem.FrameNumber(i%pages), true)
			}
		}
	}
}

// physProbe times a 64-bit write and read-back spread over 1024 frames of
// physical memory.
func physProbe() func(n int) {
	const frames = 1024
	p := mem.NewPhysical(frames * mem.PageSize)
	return func(n int) {
		for i := 0; i < n; i++ {
			a := mem.FrameNumber(i%frames).Addr() + mem.PAddr(i/frames%64*8)
			p.WriteUint64(a, uint64(i))
			if p.ReadUint64(a) != uint64(i) {
				panic("probe: physical memory lost a write")
			}
		}
	}
}

// cacheProbes time the result cache on a real result: a memory-tier hit, a
// disk-tier hit (memory tier off) and a store to both tiers.
func cacheProbes(timed func(name, unit string, do func(n int))) error {
	w, _ := ccsvm.Lookup("matmul")
	res, err := w.Run(ccsvm.MustSystem(ccsvm.SystemCCSVM), ccsvm.Params{N: 8, Seed: 1})
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "probe-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	key := func(i int) ccsvm.CacheKey {
		var k ccsvm.CacheKey
		binary.LittleEndian.PutUint64(k[:], uint64(i)+1)
		return k
	}
	memOnly, err := ccsvm.NewCache(ccsvm.CacheOptions{})
	if err != nil {
		return err
	}
	diskOnly, err := ccsvm.NewCache(ccsvm.CacheOptions{MaxEntries: -1, Dir: dir + "/disk"})
	if err != nil {
		return err
	}
	both, err := ccsvm.NewCache(ccsvm.CacheOptions{Dir: dir + "/both"})
	if err != nil {
		return err
	}
	if err := memOnly.Put(key(0), "probe", res); err != nil {
		return err
	}
	if err := diskOnly.Put(key(0), "probe", res); err != nil {
		return err
	}
	get := func(c *ccsvm.Cache) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				if _, ok := c.Get(key(0)); !ok {
					panic("probe: stored result missing")
				}
			}
		}
	}
	timed("resultcache.get_mem", "us", get(memOnly))
	timed("resultcache.get_disk", "us", get(diskOnly))
	next := 0
	var putErr error
	timed("resultcache.put", "us", func(n int) {
		for i := 0; i < n; i++ {
			next++
			if err := both.Put(key(next), "probe", res); err != nil && putErr == nil {
				putErr = err
			}
		}
	})
	return putErr
}
