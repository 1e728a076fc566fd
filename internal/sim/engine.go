package sim

import "fmt"

// Event is a unit of scheduled work. Events are ordered by time and, for
// equal times, by the order in which they were scheduled, which makes every
// simulation fully deterministic.
//
// Events are pooled: when an event fires (or a canceled event is drained from
// the queue) its object goes back on the engine's free list and is reused by
// a later At/Schedule call. A handle returned by At/Schedule is therefore
// valid only until the event fires; callers that retain handles must drop
// them when the callback runs (as Ticker does). Cancel on a handle whose
// event already fired is a no-op as long as the object has not been reused.
type Event struct {
	when Time
	seq  uint64
	// fn is the event's single callback, invoked as fn(arg). AtArg stores the
	// caller's bound callback and argument directly; At routes plain closures
	// through the callClosure trampoline with the closure in arg (func values
	// are pointer-shaped, so neither form boxes on the heap). One callback
	// word instead of the historical fn/afn pair keeps the Event at 48 bytes —
	// under one cache line — with the ordering keys (when, seq) leading the
	// struct where the heap comparisons touch them.
	fn  func(any)
	arg any
	// state is where the object is in its life cycle (see eventState).
	state eventState
}

// eventState tracks an Event object between the free list and the queue.
type eventState uint8

const (
	// eventQueued marks a scheduled event waiting in the heap.
	eventQueued eventState = iota
	// eventCanceled marks an event removed with Cancel; it stays in the heap
	// and is released when it reaches the top.
	eventCanceled
	// eventPooled marks an event sitting on the free list.
	eventPooled
)

// When reports the simulated time at which the event fires.
func (e *Event) When() Time { return e.when }

// callClosure is the trampoline behind At/Schedule: the scheduled closure
// rides in the event's arg slot, so every event dispatches through one
// uniform fn(arg) call.
func callClosure(a any) { a.(func())() }

// eventLess is the engine's total order: (time, seq).
func eventLess(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// heapArity is the fan-out of the event heap. A 4-ary heap is half as deep
// as a binary one and a node's children are adjacent in the slice. Against
// arity 2 in a same-host A/B of the paper series neither won on every
// series, and arity 4 keeps matmul/opencl's ~970-event queue five levels
// deep.
const heapArity = 4

// Engine is a single-threaded discrete-event simulation engine.
//
// All component models (caches, directories, network links, cores, devices)
// schedule closures on one shared Engine; the closures run in strict
// (time, insertion-order) order, so a simulation with the same inputs always
// produces bit-identical results.
//
// The queue is one 4-ary min-heap of events ordered by (time, seq). Cancel
// is lazy: it marks the event, which stays in the heap until it reaches the
// top and is released there, so events need no heap position. Step leaves
// the fired event's root slot as a hole for the callback's first schedule,
// so the common fire-one-schedule-one step costs a single sift-down. Event
// objects are free-listed (see Event).
type Engine struct {
	now Time
	seq uint64

	// queue is the event heap: queue[0] is the minimum under eventLess
	// (unless hole is set) and the children of queue[i] are
	// queue[heapArity*i+1 ...+heapArity]. It holds canceled events until
	// they reach the top.
	queue   []*Event
	stopped bool
	// hole marks queue[0] as the stale slot of the event Step last fired.
	// The next push fills it by sifting the new event down from the root;
	// failing that, the next peek moves the tail there. A callback that
	// schedules exactly one successor (92-99% of the events of the four
	// paper series measured) thus costs one sift instead of a pop's
	// sift-down plus a push's sift-up.
	hole bool

	// free is the event free list; fresh events are allocated in chunks.
	free []*Event

	// pending counts non-canceled events still queued, so Pending() — called
	// from hot monitoring paths — is O(1) instead of a queue scan.
	pending int

	// executed counts events that have run, for debugging and stats.
	executed uint64

	// live counts events checked out of the free list (scheduled or firing
	// but not yet released). The memtest subsystem asserts it returns to
	// zero at quiesce, which catches leaked or double-released events.
	live int

	// traceHash accumulates an order-sensitive hash of every executed event's
	// (time, seq) pair — a cheap fingerprint of the full event trace that the
	// determinism checks compare across same-seed runs. The mix runs
	// unconditionally (two multiplies per event, cheaper than a predicted
	// branch in the dispatch loop); traceOn only gates whether TraceHash
	// reports it.
	traceOn   bool
	traceHash uint64

	// preSchedule, when installed and armed, runs at the top of At/AtArg
	// before a sequence number is assigned (see SetScheduleHook). The armed
	// flag keeps the common schedule path at one predicted-false branch: the
	// exec layer arms it only while thread activations are pending.
	preSchedule func()
	hookArmed   bool
}

// NewEngine returns an engine positioned at time zero with an empty queue.
func NewEngine() *Engine {
	return &Engine{traceHash: fnvOffset}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending reports how many scheduled (non-canceled) events remain.
func (e *Engine) Pending() int { return e.pending }

// Executed reports how many events have run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// LiveEvents reports how many pooled event objects are currently checked out
// (queued — including canceled-but-undrained — or firing). A drained engine
// must report zero; anything else is a leak in the event pool.
func (e *Engine) LiveEvents() int { return e.live }

// EnableTraceHash starts accumulating an order-sensitive hash of every
// executed event's (time, seq) pair. Two runs of the same simulation are
// bit-identical iff they execute the same events in the same order, so equal
// trace hashes are the determinism contract's fingerprint.
func (e *Engine) EnableTraceHash() {
	e.traceOn = true
	e.traceHash = fnvOffset
}

// TraceHash returns the accumulated event-trace hash (zero until
// EnableTraceHash is called).
func (e *Engine) TraceHash() uint64 {
	if !e.traceOn {
		return 0
	}
	return e.traceHash
}

// FNV-1a parameters, used for the trace hash (folding whole 64-bit words
// instead of bytes: the mix only needs to be order-sensitive, not standard).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	return (h ^ v) * fnvPrime
}

// eventChunk is how many Event objects the free list grows by when empty.
const eventChunk = 64

// alloc takes an event from the free list, growing it a chunk at a time.
//
//ccsvm:pooled get
//ccsvm:hotpath
func (e *Engine) alloc() *Event {
	e.live++
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	chunk := make([]Event, eventChunk) //ccsvm:allocok // amortized chunk allocation, 1/64 gets
	for i := range chunk {
		chunk[i].state = eventPooled
	}
	for i := 1; i < len(chunk); i++ {
		e.free = append(e.free, &chunk[i]) //ccsvm:allocok // free list grows with the chunk
	}
	return &chunk[0]
}

// release returns a drained event to the free list.
//
//ccsvm:pooled put
//ccsvm:hotpath
func (e *Engine) release(ev *Event) {
	if ev.state == eventPooled {
		panic("sim: double release of a pooled event")
	}
	e.live--
	ev.fn = nil
	ev.arg = nil
	ev.state = eventPooled
	e.free = append(e.free, ev) //ccsvm:allocok // free list returns to its high-water mark
}

// push adds ev to the heap: into the hole Step left at the root if there is
// one, else at the tail, sifted up.
//
//ccsvm:hotpath
func (e *Engine) push(ev *Event) {
	if e.hole {
		e.hole = false
		e.siftDown(ev)
		return
	}
	h := append(e.queue, ev) //ccsvm:allocok // heap grows to its high-water mark
	j := len(h) - 1
	for j > 0 {
		parent := (j - 1) / heapArity
		p := h[parent]
		if !eventLess(ev, p) {
			break
		}
		h[j] = p
		j = parent
	}
	h[j] = ev
	e.queue = h
}

// popTop removes the heap's minimum (queue[0]) and sifts the displaced tail
// event down from the root.
//
//ccsvm:hotpath
func (e *Engine) popTop() {
	h := e.queue
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.queue = h[:n]
	if n > 0 {
		e.siftDown(last)
	}
}

// siftDown places ev at the root, replacing queue[0], and sifts it down.
//
//ccsvm:hotpath
func (e *Engine) siftDown(ev *Event) {
	h := e.queue
	n := len(h)
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		kids := h[first:min(first+heapArity, n)]
		m, least := 0, kids[0]
		for k, c := range kids[1:] {
			if eventLess(c, least) {
				m, least = k+1, c
			}
		}
		if !eventLess(least, ev) {
			break
		}
		h[i] = least
		i = first + m
	}
	h[i] = ev
}

// peek returns the earliest live event, leaving it at the top of the heap,
// or nil when no live event is queued. It first fills a hole Step left, and
// it pops and releases canceled events that reach the top.
//
//ccsvm:hotpath
func (e *Engine) peek() *Event {
	if e.hole {
		e.hole = false
		e.popTop()
	}
	for len(e.queue) > 0 {
		ev := e.queue[0]
		if ev.state != eventCanceled {
			return ev
		}
		e.popTop()
		e.release(ev)
	}
	return nil
}

// SetScheduleHook installs fn to run at the top of every At/AtArg, before
// the new event's sequence number is assigned. The exec layer uses it to
// activate threads whose operations completed earlier in the current event
// handler: their own scheduling must receive sequence numbers before anything
// the handler schedules afterwards, which keeps the event trace (and its
// hash) identical to a design that activated them synchronously at the
// completion point. The hook must not dispatch events; it may schedule
// (reentrant At/AtArg calls skip the hook via the caller's own guard).
func (e *Engine) SetScheduleHook(fn func()) { e.preSchedule = fn }

// ArmScheduleHook turns the installed schedule hook on or off. The caller
// arms it when there is pending work for the hook (the exec layer: parked
// threads with delivered completions) and disarms it when the work is gone,
// so the hot schedule path pays a branch, not an indirect call.
func (e *Engine) ArmScheduleHook(on bool) { e.hookArmed = on }

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error in a component model, so it panics loudly rather than silently
// reordering time.
//
//ccsvm:hotpath
func (e *Engine) At(t Time, fn func()) *Event {
	if e.hookArmed {
		e.preSchedule()
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.when, ev.seq, ev.fn, ev.arg, ev.state = t, e.seq, callClosure, fn, eventQueued
	e.seq++
	e.push(ev)
	e.pending++
	return ev
}

// AtArg schedules fn(arg) to run at absolute time t. It is the
// allocation-free variant of At for hot paths: fn is typically a callback
// bound once at component construction and arg a pooled message, so
// scheduling builds no closure. Pointer-shaped args do not escape to a fresh
// allocation when stored in the event.
//
//ccsvm:hotpath
func (e *Engine) AtArg(t Time, fn func(any), arg any) *Event {
	if e.hookArmed {
		e.preSchedule()
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.when, ev.seq, ev.fn, ev.arg, ev.state = t, e.seq, fn, arg, eventQueued
	e.seq++
	e.push(ev)
	e.pending++
	return ev
}

// Schedule schedules fn to run after delay relative to the current time.
//
//ccsvm:hotpath
func (e *Engine) Schedule(delay Duration, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.At(e.now.Add(delay), fn)
}

// ScheduleArg schedules fn(arg) after delay relative to the current time; it
// is the allocation-free variant of Schedule (see AtArg).
//
//ccsvm:hotpath
func (e *Engine) ScheduleArg(delay Duration, fn func(any), arg any) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.AtArg(e.now.Add(delay), fn, arg)
}

// Cancel removes a previously scheduled event. Canceling an already-fired or
// already-canceled event is a no-op (but see Event: a handle kept after its
// event fired may be reused by a later schedule, so long-lived holders must
// drop handles when their callback runs).
//
//ccsvm:hotpath
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.state != eventQueued {
		return
	}
	ev.state = eventCanceled
	ev.fn = nil
	ev.arg = nil
	e.pending--
}

// Step runs the single next event. It returns false when the queue is empty.
//
//ccsvm:hotpath
func (e *Engine) Step() bool {
	ev := e.peek()
	if ev == nil {
		return false
	}
	e.hole = true // ev's slot waits for the callback's first schedule
	e.now = ev.when
	e.traceHash = fnvMix(fnvMix(e.traceHash, uint64(ev.when)), ev.seq)
	fn, arg := ev.fn, ev.arg
	// Recycle before dispatch so the callback's own scheduling reuses the
	// object immediately; the handle contract (see Event) makes this safe.
	e.release(ev)
	e.pending--
	e.executed++
	fn(arg)
	return true
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with times <= deadline. Events scheduled beyond
// the deadline remain queued. It returns the number of events executed.
//
// When the loop drains normally (queue empty or next event past the
// deadline), simulated time fast-forwards to the deadline. When Stop ends the
// run early, time stays where the last event left it: events at or before the
// deadline may still be queued, and jumping past them would make a later
// Step move simulated time backwards.
func (e *Engine) RunUntil(deadline Time) int {
	e.stopped = false
	n := 0
	for !e.stopped {
		if next := e.peek(); next == nil || next.when > deadline {
			break
		}
		e.Step()
		n++
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return n
}

// Stop makes Run/RunUntil return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }
