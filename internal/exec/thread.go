package exec

import (
	"fmt"
	"iter"

	"ccsvm/internal/mem"
	"ccsvm/internal/sim"
)

// OpKind classifies an operation issued by a software thread.
type OpKind uint8

const (
	// OpCompute advances time by a number of instructions with no memory
	// access (the workload's arithmetic).
	OpCompute OpKind = iota
	// OpLoad reads Size bytes at Addr.
	OpLoad
	// OpStore writes Value (low Size bytes) at Addr.
	OpStore
	// OpRMW atomically applies the RMW/Cmp/Value-described modification to
	// the Size-byte value at Addr and returns the old value (fetch-and-op /
	// compare-and-swap).
	OpRMW
	// OpSyscall invokes an OS service on a CPU core.
	OpSyscall
)

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case OpCompute:
		return "compute"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpRMW:
		return "rmw"
	case OpSyscall:
		return "syscall"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// RMWKind enumerates the atomic read-modify-write operations a thread can
// issue. An enum plus operands replaces the historical per-call Modify
// closure: every AtomicAdd/CAS/Exchange used to allocate a capturing closure
// on the workload's hot path, where the enum rides in the Op by value.
type RMWKind uint8

const (
	// RMWAdd is fetch-and-add: the new value is old + Value (32-bit ops wrap
	// at 32 bits).
	RMWAdd RMWKind = iota
	// RMWCAS is 32-bit compare-and-swap: the new value is Value when the low
	// 32 bits of the old value equal Cmp, otherwise the value is unchanged.
	RMWCAS
	// RMWExchange unconditionally stores Value and returns the old value.
	RMWExchange
)

// Op is one operation requested by a software thread. It is copied into the
// thread's publication slot on every simulated operation, so the layout is
// packed to exactly one 64-byte cache line: the three one-byte discriminators
// and the syscall number share the first word, followed by the operand words.
type Op struct {
	// Kind and RMW classify the operation; RMW is meaningful only for OpRMW.
	Kind OpKind
	RMW  RMWKind
	// Size is the access width in bytes of memory ops (1, 4 or 8).
	Size uint8
	// Syscall is the service number of an OpSyscall.
	Syscall int32
	// Addr is the virtual address of memory ops.
	Addr mem.VAddr
	// Value is the store data, the RMW addend/new value, or unused.
	Value uint64
	// Cmp is the compare operand of an RMWCAS.
	Cmp uint64
	// Instrs is the instruction count of an OpCompute.
	Instrs int64
	// Args holds an OpSyscall's arguments.
	Args []uint64
}

// ApplyRMW computes the post-modification value of an OpRMW from the value
// previously held in memory. It is applied atomically by the core models at
// completion time; cores truncate the result to Size bytes on the store.
func (o *Op) ApplyRMW(old uint64) uint64 {
	switch o.RMW {
	case RMWAdd:
		if o.Size == 4 {
			return uint64(uint32(old) + uint32(o.Value))
		}
		return old + o.Value
	case RMWCAS:
		if uint32(old) == uint32(o.Cmp) {
			return o.Value
		}
		return old
	case RMWExchange:
		return o.Value
	default:
		panic(fmt.Sprintf("exec: ApplyRMW of RMWKind(%d)", uint8(o.RMW)))
	}
}

// Result is the completion value returned to the thread: the loaded value,
// the pre-atomic value of an RMW, or a syscall's return value.
type Result struct {
	Value uint64
}

// NextStatus is TryNext's report on a thread's state.
type NextStatus uint8

const (
	// NextOp means an operation was returned and must be executed.
	NextOp NextStatus = iota
	// NextWait means the thread has not produced its next operation yet; it
	// will run (and call the registered resume function when the operation is
	// ready) the next time it is activated from the gate's pending queue.
	NextWait
	// NextDone means the thread function has returned; the thread is finished
	// and will produce no more operations.
	NextDone
)

// killSignal is panicked inside a workload coroutine when the machine tears
// the thread down before it finished.
type killSignal struct{}

// Gate is the cooperative scheduler shared by every software thread of one
// machine. Each thread runs as a coroutine (iter.Pull), so exactly one piece
// of code — the host inside Drive, or one workload thread — runs at any
// instant. The running code advances the simulation itself: it activates
// threads from the pending queue (threads whose operation completed and whose
// between-ops Go code must run before the next event), and when the queue is
// empty it dispatches the next engine event via the step function installed
// by Drive. A thread whose own operation completes while it is driving finds
// itself at the front of the queue and just keeps running; a cross-thread
// completion costs one coroutine switch out to the host loop and one in.
//
// The gate is not safe for concurrent use. Machines must not share gates.
type Gate struct {
	// step dispatches one engine event under the host's run policy; installed
	// by Drive for the duration of the run.
	step func() bool
	// pending is the FIFO of threads whose completed operation has not yet
	// been consumed. Queue order is exactly the order the completions
	// happened, which is what makes the cooperative schedule bit-identical to
	// the historical blocking-handoff one.
	pending []*Thread
	head    int
	// draining guards Drain against reentry from the activated thread's own
	// scheduling, and inHandler restricts draining to schedules made inside
	// an event handler — a thread's own between-ops code schedules before
	// later completions activate, exactly as when it ran nested under the
	// completing handler.
	draining  bool
	inHandler bool
	// idle holds finished workers waiting for the next launch; Drive stops
	// them when it returns.
	idle []*worker
	// eng is the engine whose schedule hook this gate arms while completions
	// are pending (see Bind); armed mirrors the engine-side flag so enqueue
	// pays one store, not a call, in the common already-armed case.
	eng   *sim.Engine
	armed bool
}

// NewGate returns the scheduler for one machine's software threads.
func NewGate() *Gate { return &Gate{} }

// Bind installs the gate's drain as eng's schedule hook. The hook stays
// disarmed — a single predicted branch on the engine's schedule path — except
// while completions are pending, so bit-identical activation order costs the
// simulation nothing when no thread is waiting.
func (g *Gate) Bind(eng *sim.Engine) {
	g.eng = eng
	eng.SetScheduleHook(g.Drain)
}

//ccsvm:hotpath
func (g *Gate) enqueue(t *Thread) {
	g.pending = append(g.pending, t) //ccsvm:allocok // grows to the thread-count high-water mark, then reuses
	if !g.armed && g.eng != nil {
		g.armed = true
		g.eng.ArmScheduleHook(true)
	}
}

// disarm turns the engine-side hook off once no completion is pending.
func (g *Gate) disarm() {
	if g.armed {
		g.armed = false
		g.eng.ArmScheduleHook(false)
	}
}

// pop removes and returns the oldest pending thread, or nil. The backing
// array is recycled whenever the queue drains, which it does almost
// immediately — depth exceeds one only when a single event completes several
// operations.
func (g *Gate) pop() *Thread {
	if g.head == len(g.pending) {
		return nil
	}
	t := g.pending[g.head]
	g.pending[g.head] = nil
	g.head++
	if g.head == len(g.pending) {
		g.head = 0
		g.pending = g.pending[:0]
		g.disarm()
	}
	return t
}

// Drain activates, in completion order, every pending thread that is parked:
// each runs its between-ops code, publishes its next operation and schedules
// that operation's consequences before control returns to the caller.
// Machines install it as the engine's schedule hook, so an event handler
// that completes operations and then schedules more events observes the same
// event-creation order as the historical blocking design, where Complete
// handed control to the thread and the handler resumed only after its next
// publication. Each activation is a nested coroutine call: the thread yields
// straight back here after publishing. A pending thread that is not parked
// is the driving thread itself — its completion was delivered by an event it
// is dispatching, and it cannot be resumed from under its own handler frame
// — so the drain stops there to preserve completion order and leaves the
// rest to the drive loop.
//
//ccsvm:hotpath
func (g *Gate) Drain() {
	if !g.inHandler || g.draining || g.head == len(g.pending) || !g.pending[g.head].parked {
		return
	}
	g.draining = true
	for g.head != len(g.pending) && g.pending[g.head].parked {
		t := g.pop()
		t.nested = true
		t.w.next()
	}
	g.draining = false
}

// dispatch runs one engine event under the drain discipline: only schedules
// made from inside the handler activate pending completions.
//
//ccsvm:hotpath
func (g *Gate) dispatch() bool {
	g.inHandler = true
	ok := g.step()
	g.inHandler = false
	return ok
}

// Drive runs the simulation to completion: it activates pending threads,
// then repeatedly calls step to dispatch events. An activated thread drives
// the engine itself until its own completion comes up; when another
// thread's completion comes up first, it yields back here naming that
// thread, and Drive resumes it. Drive returns when step reports false with
// no activations outstanding — every unfinished thread is then suspended
// mid-operation, so the caller may inspect machine state and Kill them — and
// it stops the gate's idle workers, so no coroutine outlives the run.
func (g *Gate) Drive(step func() bool) {
	g.step = step
	defer g.retire()
	for {
		if t := g.pop(); t != nil {
			for t != nil {
				t, _ = t.w.next()
			}
			continue
		}
		if !g.dispatch() {
			return
		}
	}
}

// retire ends a run: it uninstalls step and stops every idle worker.
func (g *Gate) retire() {
	g.step = nil
	for i, w := range g.idle {
		g.idle[i] = nil
		w.stop()
	}
	g.idle = g.idle[:0]
}

// worker is a coroutine that runs software threads to completion, one after
// another. A worker whose thread finished waits on its gate's idle list for
// the next launch, so a machine creates a coroutine per concurrently live
// thread rather than per thread.
type worker struct {
	t     *Thread
	yield func(*Thread) bool
	next  func() (*Thread, bool)
	stop  func()
}

// run is the worker's coroutine body: it runs each thread it is handed to
// completion. Every yield hands control back to whoever resumed the worker,
// naming the thread to resume next (nil for none); a yield that returns
// false means stop was called.
func (w *worker) run(yield func(*Thread) bool) {
	w.yield = yield
	for {
		t := w.t
		t.call()
		t.finished = true
		if t.killed {
			return
		}
		next := t.exit()
		w.t = nil
		t.gate.idle = append(t.gate.idle, w)
		if !yield(next) {
			return
		}
	}
}

// Thread is the host-side handle for one software thread. The op/result
// handoff is a single-slot publication: the workload writes its next Op into
// the slot and calls the core's registered resume function itself, then
// drives the engine until its own result arrives (Complete).
type Thread struct {
	id   int
	name string
	fn   func(*Context)
	gate *Gate
	ctx  Context
	// w is the worker coroutine running the thread, once launched.
	w *worker

	// op/hasOp is the publication slot the workload fills; result carries
	// the completion value back.
	op     Op
	hasOp  bool
	result Result
	// resume is the core's continuation for consuming the next published op,
	// registered by TryNext when the op was not ready (NextWait).
	resume func()

	// parked is true while the thread is suspended mid-operation; Drain
	// reads it to tell an activatable thread from the running driver. nested
	// is set by Drain before resuming the thread and tells its next
	// publication to yield straight back instead of driving.
	parked bool
	nested bool
	// inOp is true while the thread is inside an operation — publishing it,
	// running the core's continuation or driving the engine — where a panic
	// is the simulator's, not the workload's.
	inOp bool

	killed   bool
	started  bool
	launched bool
	// finished flips when fn returns, or when the thread is killed or
	// discarded before launch.
	finished bool
	err      any
}

// NewThread creates a software thread that will run fn under the machine's
// gate. The id is exposed to the workload through Context.ThreadID.
//
//ccsvm:threadentry
func NewThread(g *Gate, id int, name string, fn func(*Context)) *Thread {
	t := &Thread{gate: g, id: id, name: name, fn: fn}
	t.ctx.thread = t
	return t
}

// ID reports the thread's identifier.
func (t *Thread) ID() int { return t.id }

// Name reports the thread's debug name.
func (t *Thread) Name() string { return t.name }

// Start marks the thread runnable. It must be called exactly once, before
// the first TryNext. The workload itself launches lazily on the first
// TryNext: this way the Go code a thread runs before its first operation is
// serialized with the engine exactly like the code between operations,
// instead of racing whatever else runs between Start and the first fetch —
// e.g. the gap code of other threads while this one sits in a core's run
// queue.
func (t *Thread) Start() {
	if t.started {
		panic("exec: thread started twice")
	}
	t.started = true
}

// launch runs the thread on a worker until it has either published its
// first operation or returned. The synchronous call is deliberate: cores
// start threads from event handlers and from other threads' between-ops
// code, and in both places the new thread's prologue (and the scheduling of
// its first operation) must complete before the caller proceeds, exactly as
// it did when the op fetch was a blocking receive.
func (t *Thread) launch() (Op, NextStatus) {
	t.launched = true
	g := t.gate
	var w *worker
	if n := len(g.idle); n > 0 {
		w = g.idle[n-1]
		g.idle[n-1] = nil
		g.idle = g.idle[:n-1]
	} else {
		w = &worker{}
		w.next, w.stop = iter.Pull(w.run)
	}
	w.t, t.w = t, w
	w.next()
	if t.hasOp {
		t.hasOp = false
		return t.op, NextOp
	}
	return Op{}, NextDone
}

// exit tells the owning core the thread is finished (it observes NextDone
// and runs its exit processing) and returns the thread to resume next: none
// when control goes back to the launching core or the drainer, otherwise the
// next pending thread.
func (t *Thread) exit() *Thread {
	r := t.resume
	if r == nil {
		// Returned before issuing a single operation: the launching core is
		// still inside launch.
		return nil
	}
	t.resume = nil
	r()
	if t.nested {
		t.nested = false
		return nil
	}
	return t.gate.pop()
}

// call runs the thread function, capturing a workload panic in err. A panic
// raised by simulator code inside an operation is left to propagate to the
// caller that resumed the thread, and on up to Drive's caller.
func (t *Thread) call() {
	defer func() {
		if t.inOp && !t.killed {
			return
		}
		if r := recover(); r != nil {
			if _, wasKill := r.(killSignal); !wasKill {
				t.err = r
			}
		}
	}()
	t.fn(&t.ctx)
}

// suspend yields control, naming next as the thread to resume (nil for
// none), and returns once this thread is resumed — which always means its
// result was delivered — or unwinds it when the machine is tearing it down.
func (t *Thread) suspend(next *Thread) {
	t.parked = true
	ok := t.w.yield(next)
	t.parked = false
	if !ok {
		panic(killSignal{})
	}
}

// TryNext fetches the thread's next operation without blocking. On NextWait
// the resume function is recorded and will be invoked — on the workload
// coroutine — as soon as the thread publishes its next operation; the core
// must simply return to the event loop. The first TryNext after Start
// launches the workload and runs it to its first publication (see launch).
func (t *Thread) TryNext(resume func()) (Op, NextStatus) {
	if t.hasOp {
		t.hasOp = false
		return t.op, NextOp
	}
	if t.finished {
		return Op{}, NextDone
	}
	if !t.launched {
		if !t.started {
			panic("exec: Next before Start")
		}
		return t.launch()
	}
	t.resume = resume
	return Op{}, NextWait
}

// Complete delivers the result of the thread's outstanding operation and
// queues the thread for activation: its between-ops code runs — in
// completion order relative to other threads — before the engine dispatches
// the next event.
func (t *Thread) Complete(r Result) {
	t.result = r
	t.gate.enqueue(t)
}

// Kill tears the thread down. It must be called while the thread is
// suspended (machines call it after Drive has returned): stopping its
// worker makes the pending yield fail, so the workload unwinds with an
// internal panic before Kill returns. Safe to call on finished threads.
func (t *Thread) Kill() {
	if t.finished {
		return
	}
	t.finished = true
	if !t.launched {
		// No workload coroutine exists yet (never started, or started but
		// never fetched from), so there is nothing to unwind.
		return
	}
	t.killed = true
	t.w.stop()
}

// Finished reports whether the thread function has returned.
func (t *Thread) Finished() bool { return t.finished }

// Err returns the panic value if the workload function panicked, or nil.
// Machines re-panic this on the host side so workload bugs fail loudly.
func (t *Thread) Err() any { return t.err }
