package exec

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ccsvm/internal/mem"
)

// microQ is a minimal stand-in for the sim engine's event queue: a FIFO of
// thunks the gate's Drive loop dispatches one at a time. It exercises the
// cooperative scheduling protocol without pulling the full engine into the
// package's unit tests.
type microQ struct{ q []func() }

func (e *microQ) at(f func()) { e.q = append(e.q, f) }

func (e *microQ) step() bool {
	if len(e.q) == 0 {
		return false
	}
	f := e.q[0]
	e.q = e.q[:copy(e.q, e.q[1:])]
	f()
	return true
}

// hostCore drives one thread the way a core model does: TryNext with itself
// as the resume continuation, completions delivered from "engine" context
// (a microQ thunk) one op later.
type hostCore struct {
	th      *Thread
	eng     *microQ
	respond func(Op) Result
	ops     []Op
}

func (h *hostCore) fetch() {
	op, st := h.th.TryNext(h.fetch)
	if st != NextOp {
		return
	}
	h.ops = append(h.ops, op)
	o := op
	h.eng.at(func() {
		h.th.Complete(h.respond(o))
		h.fetch()
	})
}

// drive runs a thread to completion on the host side, answering every
// operation with the given responder, and returns the ops seen.
func drive(t *testing.T, th *Thread, respond func(Op) Result) []Op {
	t.Helper()
	ops := driveRaw(th, respond)
	if err := th.Err(); err != nil {
		t.Fatalf("thread panicked: %v", err)
	}
	return ops
}

func driveRaw(th *Thread, respond func(Op) Result) []Op {
	h := &hostCore{th: th, eng: &microQ{}, respond: respond}
	th.Start()
	h.eng.at(h.fetch)
	th.gate.Drive(h.eng.step)
	return h.ops
}

func TestThreadBasicOps(t *testing.T) {
	var observed uint64
	th := NewThread(NewGate(), 7, "worker", func(ctx *Context) {
		if ctx.ThreadID() != 7 {
			t.Error("wrong thread id")
		}
		ctx.Compute(100)
		ctx.Store32(0x1000, 42)
		observed = uint64(ctx.Load32(0x1000))
	})
	ops := drive(t, th, func(op Op) Result {
		if op.Kind == OpLoad {
			return Result{Value: 42}
		}
		return Result{}
	})
	if len(ops) != 3 {
		t.Fatalf("saw %d ops, want 3", len(ops))
	}
	if ops[0].Kind != OpCompute || ops[0].Instrs != 100 {
		t.Fatalf("first op = %+v", ops[0])
	}
	if ops[1].Kind != OpStore || ops[1].Addr != 0x1000 || ops[1].Value != 42 || ops[1].Size != 4 {
		t.Fatalf("second op = %+v", ops[1])
	}
	if ops[2].Kind != OpLoad {
		t.Fatalf("third op = %+v", ops[2])
	}
	if observed != 42 {
		t.Fatalf("thread observed %d", observed)
	}
	if !th.Finished() {
		t.Fatal("thread not marked finished")
	}
}

func TestContextTypedAccessors(t *testing.T) {
	memory := map[mem.VAddr]uint64{}
	th := NewThread(NewGate(), 0, "typed", func(ctx *Context) {
		ctx.Store64(0x10, 0xdeadbeef12345678)
		ctx.Store8(0x20, 0xab)
		ctx.StoreFloat64(0x30, 3.5)
		ctx.StoreFloat32(0x40, 1.25)
		if ctx.Load64(0x10) != 0xdeadbeef12345678 {
			t.Error("Load64 wrong")
		}
		if ctx.Load8(0x20) != 0xab {
			t.Error("Load8 wrong")
		}
		if ctx.LoadFloat64(0x30) != 3.5 {
			t.Error("LoadFloat64 wrong")
		}
		if ctx.LoadFloat32(0x40) != 1.25 {
			t.Error("LoadFloat32 wrong")
		}
	})
	drive(t, th, func(op Op) Result {
		switch op.Kind {
		case OpStore:
			memory[op.Addr] = op.Value
			return Result{}
		case OpLoad:
			return Result{Value: memory[op.Addr]}
		}
		return Result{}
	})
}

func TestContextAtomics(t *testing.T) {
	val := uint64(10)
	th := NewThread(NewGate(), 0, "atomics", func(ctx *Context) {
		if old := ctx.AtomicAdd64(0x100, 5); old != 10 {
			t.Errorf("AtomicAdd64 old = %d", old)
		}
		if old := ctx.AtomicAdd32(0x100, 1); old != 15 {
			t.Errorf("AtomicAdd32 old = %d", old)
		}
		if !ctx.AtomicCAS32(0x100, 16, 99) {
			t.Error("CAS should succeed")
		}
		if ctx.AtomicCAS32(0x100, 16, 77) {
			t.Error("CAS should fail")
		}
		if old := ctx.AtomicExchange32(0x100, 1); old != 99 {
			t.Errorf("exchange old = %d", old)
		}
	})
	drive(t, th, func(op Op) Result {
		if op.Kind != OpRMW {
			t.Fatalf("expected RMW, got %v", op.Kind)
		}
		old := val
		val = op.ApplyRMW(old)
		return Result{Value: old}
	})
}

func TestContextSyscall(t *testing.T) {
	th := NewThread(NewGate(), 0, "sys", func(ctx *Context) {
		if ret := ctx.Syscall(3, 1, 2); ret != 42 {
			t.Errorf("syscall returned %d", ret)
		}
	})
	ops := drive(t, th, func(op Op) Result {
		if op.Kind == OpSyscall {
			if op.Syscall != 3 || len(op.Args) != 2 {
				t.Errorf("syscall op = %+v", op)
			}
			return Result{Value: 42}
		}
		return Result{}
	})
	if len(ops) != 1 {
		t.Fatalf("saw %d ops", len(ops))
	}
}

func TestComputeZeroIsFree(t *testing.T) {
	th := NewThread(NewGate(), 0, "zero", func(ctx *Context) {
		ctx.Compute(0)
		ctx.Compute(-5)
	})
	ops := drive(t, th, func(Op) Result { return Result{} })
	if len(ops) != 0 {
		t.Fatalf("zero/negative compute produced %d ops", len(ops))
	}
}

func TestThreadPanicIsCaptured(t *testing.T) {
	th := NewThread(NewGate(), 0, "boom", func(ctx *Context) {
		ctx.Compute(1)
		panic("workload bug")
	})
	ops := driveRaw(th, func(Op) Result { return Result{} })
	if len(ops) != 1 || ops[0].Kind != OpCompute {
		t.Fatalf("ops = %+v, want the compute op first", ops)
	}
	if !th.Finished() {
		t.Fatal("panicked thread not finished")
	}
	if th.Err() != "workload bug" {
		t.Fatalf("Err() = %v", th.Err())
	}
}

func TestThreadKill(t *testing.T) {
	th := NewThread(NewGate(), 0, "spin", func(ctx *Context) {
		for {
			ctx.Compute(10)
		}
	})
	// Publish the first op but never complete it: Drive returns with the
	// thread parked mid-operation, the state machines tear threads down in.
	eng := &microQ{}
	th.Start()
	eng.at(func() {
		if op, st := th.TryNext(nil); st != NextOp || op.Kind != OpCompute {
			t.Errorf("first fetch = %v, %v", op, st)
		}
	})
	th.gate.Drive(eng.step)
	th.Kill()
	if !th.Finished() {
		t.Fatal("killed thread not finished")
	}
	if th.Err() != nil {
		t.Fatalf("kill should not report an error, got %v", th.Err())
	}
	// Killing again is a no-op.
	th.Kill()
}

func TestThreadDoubleStartPanics(t *testing.T) {
	th := NewThread(NewGate(), 0, "x", func(ctx *Context) {})
	driveRaw(th, func(Op) Result { return Result{} })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double start")
		}
	}()
	th.Start()
}

func TestOpKindString(t *testing.T) {
	kinds := []OpKind{OpCompute, OpLoad, OpStore, OpRMW, OpSyscall}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", k)
		}
	}
}

func TestThreadKillBeforeLaunch(t *testing.T) {
	ran := false
	th := NewThread(NewGate(), 0, "parked", func(ctx *Context) {
		ran = true
		ctx.Compute(10)
	})
	// Started but never stepped: the workload launches lazily on the first
	// TryNext, so Kill must tear the thread down without running it.
	th.Start()
	th.Kill()
	if !th.Finished() {
		t.Fatal("killed unlaunched thread not finished")
	}
	// A later fetch (a core pulling the thread from its run queue after a
	// machine shutdown) must not resurrect the workload.
	if _, st := th.TryNext(nil); st != NextDone {
		t.Fatal("TryNext on a killed thread returned an op")
	}
	if ran {
		t.Fatal("killed thread's workload function ran")
	}
}

// TestGateCrossThreadCompletionOrder pins the queue discipline: when one
// event completes several threads' operations, their between-ops code runs
// in completion order.
func TestGateCrossThreadCompletionOrder(t *testing.T) {
	g := NewGate()
	eng := &microQ{}
	var order []int
	threads := make([]*Thread, 3)
	for i := range threads {
		id := i
		threads[i] = NewThread(g, id, "t", func(ctx *Context) {
			ctx.Compute(1)
			order = append(order, id)
		})
	}
	// Launch each thread (publishing its compute op), then complete all
	// three from a single "event" in reverse launch order — registering a
	// fetch continuation first, like a core does, so each thread's exit is
	// observed.
	eng.at(func() {
		for _, th := range threads {
			th.Start()
			if _, st := th.TryNext(nil); st != NextOp {
				t.Errorf("launch fetch = %v", st)
			}
		}
		for _, i := range []int{2, 0, 1} {
			th := threads[i]
			var fetch func()
			fetch = func() { th.TryNext(fetch) }
			if _, st := th.TryNext(fetch); st != NextWait {
				t.Errorf("pre-completion fetch = %v, want NextWait", st)
			}
			th.Complete(Result{})
		}
	})
	g.Drive(eng.step)
	want := []int{2, 0, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("activation order %v, want %v", order, want)
		}
	}
}

// hookedQ is a microQ whose schedules first run the gate's Drain, the way
// Gate.Bind hooks the real engine, so nested activations happen.
type hookedQ struct {
	microQ
	g *Gate
}

func (e *hookedQ) at(f func()) {
	e.g.Drain()
	e.microQ.at(f)
}

// stepCore runs one thread like hostCore, but on a hookedQ: every op
// completes in the next event, which then fetches the following op.
type stepCore struct {
	th                  *Thread
	eng                 *hookedQ
	fetchFn, completeFn func()
}

func newStepCore(eng *hookedQ, th *Thread) *stepCore {
	c := &stepCore{th: th, eng: eng}
	c.fetchFn, c.completeFn = c.fetch, c.complete
	return c
}

// start launches the thread from the caller's context, as cores do when a
// thread is handed to them.
func (c *stepCore) start() {
	c.th.Start()
	c.fetch()
}

func (c *stepCore) fetch() {
	if _, st := c.th.TryNext(c.fetchFn); st == NextOp {
		c.eng.at(c.completeFn)
	}
}

func (c *stepCore) complete() {
	c.th.Complete(Result{})
	c.fetch()
}

// TestGateNoGoroutineLeak pins that a run leaves no coroutine behind: idle
// workers are stopped when Drive returns, and killed threads unwind theirs.
func TestGateNoGoroutineLeak(t *testing.T) {
	run := func(t *testing.T, body func(g *Gate, eng *hookedQ) []*Thread) {
		t.Helper()
		before := runtime.NumGoroutine()
		g := NewGate()
		eng := &hookedQ{g: g}
		threads := body(g, eng)
		for _, th := range threads {
			th.Kill()
		}
		// A goroutine left by an earlier test may exit during the run, so
		// only a count that stays above before is a leak; give stopped
		// workers a bounded moment to unwind before judging.
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after > before {
			t.Fatalf("goroutines: %d before the run, %d after", before, after)
		}
	}
	spawn := func(g *Gate, eng *hookedQ, n int, fn func(*Context)) []*Thread {
		threads := make([]*Thread, n)
		for i := range threads {
			threads[i] = NewThread(g, i, "t", fn)
			c := newStepCore(eng, threads[i])
			eng.at(c.start)
		}
		return threads
	}
	t.Run("normal", func(t *testing.T) {
		run(t, func(g *Gate, eng *hookedQ) []*Thread {
			threads := spawn(g, eng, 8, func(ctx *Context) {
				for i := 0; i < 5; i++ {
					ctx.Compute(1)
				}
			})
			g.Drive(eng.step)
			for _, th := range threads {
				if !th.Finished() || th.Err() != nil {
					t.Fatalf("thread %d: finished=%v err=%v", th.ID(), th.Finished(), th.Err())
				}
			}
			return nil
		})
	})
	t.Run("over budget killed", func(t *testing.T) {
		run(t, func(g *Gate, eng *hookedQ) []*Thread {
			threads := spawn(g, eng, 4, func(ctx *Context) {
				for {
					ctx.Compute(1)
				}
			})
			budget := 50
			g.Drive(func() bool {
				budget--
				return budget > 0 && eng.step()
			})
			return threads
		})
	})
	t.Run("workload panic", func(t *testing.T) {
		run(t, func(g *Gate, eng *hookedQ) []*Thread {
			threads := spawn(g, eng, 4, func(ctx *Context) {
				for i := 0; ; i++ {
					ctx.Compute(1)
					if ctx.ThreadID() == 2 && i == 3 {
						panic("workload bug")
					}
				}
			})
			// Re-panic a failed thread on the host side, as the machines do.
			func() {
				defer func() {
					if r := recover(); r != "thread 2 failed" {
						t.Errorf("Drive panicked with %v", r)
					}
				}()
				g.Drive(func() bool {
					for _, th := range threads {
						if th.Err() != nil {
							panic(fmt.Sprintf("thread %d failed", th.ID()))
						}
					}
					return eng.step()
				})
			}()
			for _, th := range threads {
				if err := th.Err(); (err != nil) != (th.ID() == 2) {
					t.Errorf("thread %d: Err() = %v", th.ID(), err)
				}
			}
			return threads
		})
	})
}

// TestGateDriverCompletionNotDrainedNested pins the drain rule for a
// handler dispatched by a driving thread: when that thread's own completion
// is at the head of the queue, a schedule made by the handler must not
// activate anything nested — not the driver, which is running, and not the
// threads queued behind it, which would then run out of completion order.
func TestGateDriverCompletionNotDrainedNested(t *testing.T) {
	g := NewGate()
	eng := &hookedQ{g: g}
	var log []string
	a := NewThread(g, 0, "a", func(ctx *Context) {
		ctx.Compute(1)
		log = append(log, "a1")
		ctx.Compute(1)
		log = append(log, "a2")
	})
	b := NewThread(g, 1, "b", func(ctx *Context) {
		ctx.Compute(1)
		log = append(log, "b1")
	})
	var aFetch, bFetch func()
	aFetch = func() {
		if _, st := a.TryNext(aFetch); st != NextOp {
			return
		}
		// a's second op: one event completes a, then b, then schedules.
		eng.at(func() {
			a.Complete(Result{})
			a.TryNext(aFetch)
			b.Complete(Result{})
			b.TryNext(bFetch)
			eng.at(func() { log = append(log, "x") })
		})
	}
	bFetch = func() { b.TryNext(bFetch) }
	eng.at(func() {
		a.Start()
		b.Start()
		a.TryNext(nil)
		b.TryNext(nil)
		// Complete a's first op only: the host activates a, and a then
		// drives the engine through the event above.
		a.Complete(Result{})
		a.TryNext(aFetch)
	})
	g.Drive(eng.step)
	want := []string{"a1", "a2", "b1", "x"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("activation log %v, want %v", log, want)
	}
	if !a.Finished() || !b.Finished() {
		t.Fatal("threads did not finish")
	}
}

// TestThreadLaunchFromBetweenOps launches a thread from another thread's
// between-ops code: the new thread's prologue and first publication run
// inside the launching call, nested on the launcher's coroutine.
func TestThreadLaunchFromBetweenOps(t *testing.T) {
	g := NewGate()
	eng := &hookedQ{g: g}
	var log []string
	child := NewThread(g, 1, "child", func(ctx *Context) {
		log = append(log, "child prologue")
		ctx.Compute(1)
		log = append(log, "child done")
	})
	parent := NewThread(g, 0, "parent", func(ctx *Context) {
		ctx.Compute(1)
		newStepCore(eng, child).start()
		log = append(log, "child launched")
		ctx.Compute(1)
	})
	eng.at(newStepCore(eng, parent).start)
	g.Drive(eng.step)
	want := []string{"child prologue", "child launched", "child done"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log %v, want %v", log, want)
	}
	if !parent.Finished() || !child.Finished() || parent.Err() != nil || child.Err() != nil {
		t.Fatal("threads did not finish cleanly")
	}
}

// TestThreadLaunchInsideDrain launches a thread from the between-ops code of
// a thread that Drain activated: the launch nests inside the nested
// activation, and the drained handler resumes only after both returned.
func TestThreadLaunchInsideDrain(t *testing.T) {
	g := NewGate()
	eng := &hookedQ{g: g}
	var log []string
	child := NewThread(g, 1, "child", func(ctx *Context) {
		log = append(log, "child prologue")
		ctx.Compute(1)
	})
	parent := NewThread(g, 0, "parent", func(ctx *Context) {
		ctx.Compute(1)
		newStepCore(eng, child).start()
		log = append(log, "child launched")
		ctx.Compute(1)
	})
	var fetch func()
	fetch = func() {
		if _, st := parent.TryNext(fetch); st == NextOp {
			eng.at(func() {})
		}
	}
	eng.at(func() {
		parent.Start()
		parent.TryNext(nil)
		// Complete the first op from a handler the host dispatches, then
		// schedule: the schedule drains the parent nested, right here.
		eng.at(func() {
			parent.Complete(Result{})
			parent.TryNext(fetch)
			eng.at(func() {})
			log = append(log, "handler resumed")
		})
	})
	g.Drive(eng.step)
	want := []string{"child prologue", "child launched", "handler resumed"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log %v, want %v", log, want)
	}
}

// TestSimulatorPanicPropagates pins that a panic raised by an event handler
// while a thread drives the engine reaches Drive's caller unchanged, rather
// than being recorded as that thread's workload error.
func TestSimulatorPanicPropagates(t *testing.T) {
	g := NewGate()
	eng := &hookedQ{g: g}
	th := NewThread(g, 0, "t", func(ctx *Context) {
		ctx.Compute(1)
		ctx.Compute(1)
	})
	var fetch func()
	fetch = func() {
		if _, st := th.TryNext(fetch); st == NextOp {
			eng.at(func() { panic("handler bug") })
		}
	}
	eng.at(func() {
		th.Start()
		th.TryNext(nil)
		th.Complete(Result{})
		th.TryNext(fetch)
	})
	func() {
		defer func() {
			if r := recover(); r != "handler bug" {
				t.Errorf("Drive panicked with %v, want the handler's panic", r)
			}
		}()
		g.Drive(eng.step)
	}()
	if th.Err() != nil {
		t.Fatalf("simulator panic recorded as workload error %v", th.Err())
	}
	th.Kill()
}

// TestWorkerReuse pins the per-thread cost of worker reuse: threads that run
// one after another within a run share one coroutine, so a thread lifetime
// allocates only its handle (plus this harness's core), not a fresh
// iter.Pull coroutine.
func TestWorkerReuse(t *testing.T) {
	run := func(children int) float64 {
		return testing.AllocsPerRun(5, func() {
			g := NewGate()
			eng := &hookedQ{g: g}
			parent := NewThread(g, 0, "parent", func(ctx *Context) {
				for i := 0; i < children; i++ {
					ctx.Compute(1)
					child := NewThread(g, i+1, "child", func(ctx *Context) {
						ctx.Compute(1)
					})
					newStepCore(eng, child).start()
					for !child.Finished() {
						ctx.Compute(1)
					}
				}
			})
			eng.at(newStepCore(eng, parent).start)
			g.Drive(eng.step)
		})
	}
	perChild := (run(110) - run(10)) / 100
	// A child costs its Thread, its stepCore and the core's two bound
	// callbacks; a fresh coroutine per child would add about a dozen more.
	t.Logf("%.2f allocations per sequential thread", perChild)
	if perChild > 4.5 {
		t.Fatalf("%.1f allocations per sequential thread, want at most 4", perChild)
	}
}
