package mttop_test

import (
	"runtime"
	"testing"

	"ccsvm/internal/exec"
	"ccsvm/internal/kernelos"
	"ccsvm/internal/mem"
	"ccsvm/internal/mttop"
	"ccsvm/internal/sim"
	"ccsvm/internal/stats"
	"ccsvm/internal/vm"
)

// stepPort is a flat-latency memory port whose per-access latency can be
// changed between accesses, so completions can be forced out of issue order.
type stepPort struct {
	engine  *sim.Engine
	latency sim.Duration
}

func (p *stepPort) Access(req mem.Request, done func()) {
	p.engine.Schedule(p.latency, done)
}

// mttopRig is one MTTOP core with a flat port and (optionally) no MMU — the
// configuration the APU machine reuses for its GPU SIMD units.
type mttopRig struct {
	engine *sim.Engine
	gate   *exec.Gate
	core   *mttop.Core
	phys   *mem.Physical
	port   *stepPort
	reg    *stats.Registry
}

func newMTTOPRig(t *testing.T, contexts, issueWidth int) *mttopRig {
	t.Helper()
	engine := sim.NewEngine()
	gate := exec.NewGate()
	gate.Bind(engine)
	reg := stats.NewRegistry("test")
	phys := mem.NewPhysical(16 << 20)
	port := &stepPort{engine: engine, latency: 2 * sim.Nanosecond}
	core := mttop.New(engine, mttop.Config{
		Clock:       sim.NewClock("mttop", 1e9), // 1 ns period: cycles read as ns
		NumContexts: contexts,
		IssueWidth:  issueWidth,
		Name:        "mt0",
	}, port, nil, phys, nil, reg)
	return &mttopRig{engine: engine, gate: gate, core: core, phys: phys, port: port, reg: reg}
}

// TestContextAllocationAndReuse pins the hardware-context lifecycle: starting
// threads consumes free contexts, finishing threads returns them, and the
// freed contexts are immediately reusable for new threads.
func TestContextAllocationAndReuse(t *testing.T) {
	r := newMTTOPRig(t, 2, 8)
	if got := r.core.FreeContexts(); got != 2 {
		t.Fatalf("fresh core has %d free contexts, want 2", got)
	}
	finished := 0
	run := func() *exec.Thread {
		return exec.NewThread(r.gate, finished, "t", func(c *exec.Context) { c.Compute(10) })
	}
	r.core.StartThread(run(), 0, func() { finished++ })
	r.core.StartThread(run(), 0, func() { finished++ })
	if got := r.core.FreeContexts(); got != 0 {
		t.Fatalf("free contexts = %d with two threads running, want 0", got)
	}
	if got := r.core.BusyContexts(); got != 2 {
		t.Fatalf("busy contexts = %d, want 2", got)
	}
	r.gate.Drive(r.engine.Step)
	if finished != 2 {
		t.Fatalf("%d threads finished, want 2", finished)
	}
	if got := r.core.FreeContexts(); got != 2 {
		t.Fatalf("free contexts = %d after drain, want 2", got)
	}
	// The freed contexts take a third thread without complaint.
	r.core.StartThread(run(), 0, func() { finished++ })
	r.gate.Drive(r.engine.Step)
	if finished != 3 {
		t.Fatalf("%d threads finished, want 3", finished)
	}
	if got, _ := r.reg.Lookup("mt0.threads_run"); got != 3 {
		t.Fatalf("threads_run = %d, want 3", got)
	}
}

// TestContextsBuiltOnDemand pins that a core builds hardware contexts only
// as its threads need them: construction costs the same for 8 contexts as
// for 4096, k threads run one after another share one context, and two
// threads running at once build two, with FreeContexts and BusyContexts
// exact throughout.
func TestContextsBuiltOnDemand(t *testing.T) {
	newBytes := func(contexts int) uint64 {
		const builds = 16
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < builds; i++ {
			mttop.New(sim.NewEngine(), mttop.Config{
				Clock:       sim.NewClock("mttop", 1e9),
				NumContexts: contexts,
				IssueWidth:  8,
				Name:        "mt0",
			}, nil, nil, nil, nil, stats.NewRegistry("test"))
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / builds
	}
	// Eagerly built, 4096 contexts cost over 500 KiB more than 8.
	if small, large := newBytes(8), newBytes(4096); large > small+1024 {
		t.Fatalf("mttop.New allocates %d bytes with 4096 contexts, %d with 8: want no dependence",
			large, small)
	}

	r := newMTTOPRig(t, 8, 8)
	check := func(when string, free, busy, idle int) {
		t.Helper()
		if got := r.core.FreeContexts(); got != free {
			t.Fatalf("%s: FreeContexts = %d, want %d", when, got, free)
		}
		if got := r.core.BusyContexts(); got != busy {
			t.Fatalf("%s: BusyContexts = %d, want %d", when, got, busy)
		}
		if got := r.core.IdleContexts(); got != idle {
			t.Fatalf("%s: %d built contexts idle, want %d", when, got, idle)
		}
	}
	check("fresh core", 8, 0, 0)
	thread := func(id int) *exec.Thread {
		return exec.NewThread(r.gate, id, "t", func(c *exec.Context) { c.Compute(10) })
	}
	for k := 0; k < 5; k++ {
		r.core.StartThread(thread(k), 0, nil)
		check("one thread running", 7, 1, 0)
		r.gate.Drive(r.engine.Step)
		check("sequential thread done", 8, 0, 1)
	}
	r.core.StartThread(thread(5), 0, nil)
	r.core.StartThread(thread(6), 0, nil)
	check("two threads running", 6, 2, 0)
	r.gate.Drive(r.engine.Step)
	check("concurrent threads done", 8, 0, 2)
}

// TestStartThreadWithoutFreeContextPanics pins the loud failure mode the MIFD
// relies on checking FreeContexts to avoid.
func TestStartThreadWithoutFreeContextPanics(t *testing.T) {
	r := newMTTOPRig(t, 1, 8)
	r.core.StartThread(exec.NewThread(r.gate, 0, "t0", func(c *exec.Context) { c.Compute(1000) }), 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("StartThread with no free contexts did not panic")
		}
	}()
	r.core.StartThread(exec.NewThread(r.gate, 1, "t1", func(c *exec.Context) {}), 0, nil)
}

// TestInFlightOpStatePerContext forces memory-op completions out of issue
// order (the second context's access completes long before the first's) and
// requires each context's in-flight op state — the op, its address, its
// result — to stay with its own thread.
func TestInFlightOpStatePerContext(t *testing.T) {
	r := newMTTOPRig(t, 2, 8)
	const a0, a1 = mem.VAddr(0x1000), mem.VAddr(0x2000)
	r.phys.WriteUint64(mem.PAddr(a0), 111)
	r.phys.WriteUint64(mem.PAddr(a1), 222)

	var got0, got1 uint64
	// Thread 0 issues first through a slow port; thread 1 issues second
	// through a fast one, so completions arrive 1-then-0.
	r.port.latency = 100 * sim.Nanosecond
	r.core.StartThread(exec.NewThread(r.gate, 0, "slow", func(c *exec.Context) {
		got0 = c.Load64(a0)
		c.Store64(a0, got0+1)
	}), 0, nil)
	r.port.latency = 1 * sim.Nanosecond
	r.core.StartThread(exec.NewThread(r.gate, 1, "fast", func(c *exec.Context) {
		got1 = c.Load64(a1)
		if old := c.AtomicAdd64(a1, 10); old != 222 {
			t.Errorf("fetch-add returned %d, want 222", old)
		}
	}), 0, nil)
	r.gate.Drive(r.engine.Step)

	if got0 != 111 || got1 != 222 {
		t.Fatalf("loads crossed contexts: got0=%d (want 111), got1=%d (want 222)", got0, got1)
	}
	if v := r.phys.ReadUint64(mem.PAddr(a0)); v != 112 {
		t.Fatalf("store through context 0 wrote %d to a0, want 112", v)
	}
	if v := r.phys.ReadUint64(mem.PAddr(a1)); v != 232 {
		t.Fatalf("RMW through context 1 left a1 = %d, want 232", v)
	}
	if got, _ := r.reg.Lookup("mt0.mem_ops"); got != 4 {
		t.Fatalf("mem_ops = %d, want 4", got)
	}
}

// TestIssueWidthSharesBandwidth pins the shared issue bucket: two 100-instr
// threads on an IssueWidth-1 core serialize (~200 cycles), while a wide core
// overlaps them (~100 cycles, each thread bounded by its dependent chain).
func TestIssueWidthSharesBandwidth(t *testing.T) {
	run := func(issueWidth int) sim.Time {
		r := newMTTOPRig(t, 2, issueWidth)
		for i := 0; i < 2; i++ {
			r.core.StartThread(exec.NewThread(r.gate, i, "t", func(c *exec.Context) { c.Compute(100) }), 0, nil)
		}
		r.gate.Drive(r.engine.Step)
		return r.engine.Now()
	}
	narrow := run(1)
	wide := run(100)
	if narrow < sim.Time(200*sim.Nanosecond) {
		t.Fatalf("IssueWidth 1 finished two 100-instr threads in %v, want >= 200ns", narrow)
	}
	if wide >= narrow {
		t.Fatalf("IssueWidth 100 (%v) not faster than IssueWidth 1 (%v)", wide, narrow)
	}
	if wide < sim.Time(100*sim.Nanosecond) {
		t.Fatalf("a 100-instr dependent chain finished in %v, faster than 1 instr/cycle", wide)
	}
}

// TestSyscallOnMTTOPPanics: MTTOP cores do not run the OS (paper §3.2.1).
func TestSyscallOnMTTOPPanics(t *testing.T) {
	r := newMTTOPRig(t, 1, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("syscall on an MTTOP core did not panic")
		}
	}()
	r.core.StartThread(exec.NewThread(r.gate, 0, "t0", func(c *exec.Context) { c.Syscall(1) }), 0, nil)
	r.gate.Drive(r.engine.Step)
}

// faultRecorder implements mttop.FaultHandler the way the MIFD does: service
// the fault on the "CPU" (here: directly in the kernel) and resume the MTTOP
// access after a delay.
type faultRecorder struct {
	engine *sim.Engine
	kernel *kernelos.Kernel
	faults int
}

func (f *faultRecorder) RaiseMTTOPPageFault(fault *vm.Fault, resume func()) {
	f.faults++
	f.kernel.HandlePageFault(fault)
	f.engine.Schedule(50*sim.Nanosecond, resume)
}

// TestPageFaultEscalatesToHandler gives the core a real MMU and an unmapped
// heap page: the first touch must escalate to the FaultHandler, retry after
// resume, and complete with the right data.
func TestPageFaultEscalatesToHandler(t *testing.T) {
	engine := sim.NewEngine()
	gate := exec.NewGate()
	gate.Bind(engine)
	reg := stats.NewRegistry("test")
	phys := mem.NewPhysical(16 << 20)
	kernel := kernelos.NewKernel(phys, 16, kernelos.DefaultCosts(), reg)
	proc := kernel.NewProcess()
	port := &stepPort{engine: engine, latency: 2 * sim.Nanosecond}
	mmu := vm.NewMMU(vm.TLBConfig{Entries: 8, Name: "mt0.tlb"}, port, phys, reg)
	handler := &faultRecorder{engine: engine, kernel: kernel}
	core := mttop.New(engine, mttop.Config{
		Clock:       sim.NewClock("mttop", 1e9),
		NumContexts: 4,
		IssueWidth:  8,
		Name:        "mt0",
	}, port, mmu, phys, handler, reg)
	mmu.SetRoot(proc.Root())

	va := proc.Sbrk(mem.PageSize)
	var readBack uint64
	done := false
	core.StartThread(exec.NewThread(gate, 0, "t0", func(c *exec.Context) {
		c.Store64(va, 0xbeef)
		readBack = c.Load64(va)
	}), proc.Root(), func() { done = true })
	gate.Drive(engine.Step)

	if !done {
		t.Fatal("thread did not finish")
	}
	if handler.faults != 1 {
		t.Fatalf("handler saw %d faults, want 1 (second access hits the mapped page)", handler.faults)
	}
	if got, _ := reg.Lookup("mt0.page_faults"); got != 1 {
		t.Fatalf("page_faults = %d, want 1", got)
	}
	if readBack != 0xbeef {
		t.Fatalf("read back %#x, want 0xbeef", readBack)
	}
}
