package exec

import (
	"math"

	"ccsvm/internal/mem"
)

// Context is the interface workload code uses to interact with the simulated
// machine. Every method blocks (in host terms) until the simulated core has
// performed the operation, so workload functions read like ordinary
// sequential code while their memory behaviour is played out cycle by cycle
// in the timing models. A thread's Context lives inside its Thread.
type Context struct {
	thread *Thread
}

// do publishes one operation to the owning core and waits for its
// completion by driving the engine itself: the thread writes the op into its
// slot, invokes the core's resume continuation (the core consumes the op and
// schedules its events on this coroutine), and drives until its own result
// arrives. Two publications yield straight back to whoever resumed the
// thread instead: the first operation, whose launching core is waiting in
// Thread.launch with no continuation registered yet, and a nested
// activation from Gate.Drain.
func (c *Context) do(op Op) Result {
	t := c.thread
	t.inOp = true
	t.op, t.hasOp = op, true
	r := t.resume
	t.resume = nil
	if r != nil {
		r()
	}
	if r == nil || t.nested {
		t.nested = false
		t.suspend(nil)
	} else {
		t.drive()
	}
	t.inOp = false
	return t.result
}

// drive advances the simulation while this thread's operation is in flight:
// pending completions are activated in completion order, then engine events
// are dispatched. The thread discovers its own completion by popping itself
// from the queue front — the zero-switch fast path. Any other activation,
// or an engine that cannot advance, makes it yield to the host loop (naming
// the popped thread, if any) until some later activation resumes it, which
// always means its result has been delivered.
//
//ccsvm:hotpath
func (t *Thread) drive() {
	g := t.gate
	for {
		if n := g.pop(); n != nil {
			if n != t {
				t.suspend(n)
			}
			return
		}
		if !g.dispatch() {
			t.suspend(nil)
			return
		}
	}
}

// ThreadID reports the software thread's identifier (the xthreads tid).
func (c *Context) ThreadID() int { return c.thread.id }

// Compute charges n instructions of pure computation.
func (c *Context) Compute(n int64) {
	if n <= 0 {
		return
	}
	c.do(Op{Kind: OpCompute, Instrs: n})
}

// Load64 loads a 64-bit value.
func (c *Context) Load64(va mem.VAddr) uint64 {
	return c.do(Op{Kind: OpLoad, Addr: va, Size: 8}).Value
}

// Load32 loads a 32-bit value.
func (c *Context) Load32(va mem.VAddr) uint32 {
	return uint32(c.do(Op{Kind: OpLoad, Addr: va, Size: 4}).Value)
}

// Load8 loads a byte.
func (c *Context) Load8(va mem.VAddr) uint8 {
	return uint8(c.do(Op{Kind: OpLoad, Addr: va, Size: 1}).Value)
}

// Store64 stores a 64-bit value.
func (c *Context) Store64(va mem.VAddr, v uint64) {
	c.do(Op{Kind: OpStore, Addr: va, Size: 8, Value: v})
}

// Store32 stores a 32-bit value.
func (c *Context) Store32(va mem.VAddr, v uint32) {
	c.do(Op{Kind: OpStore, Addr: va, Size: 4, Value: uint64(v)})
}

// Store8 stores a byte.
func (c *Context) Store8(va mem.VAddr, v uint8) {
	c.do(Op{Kind: OpStore, Addr: va, Size: 1, Value: uint64(v)})
}

// LoadFloat64 loads an IEEE-754 double.
func (c *Context) LoadFloat64(va mem.VAddr) float64 {
	return math.Float64frombits(c.Load64(va))
}

// StoreFloat64 stores an IEEE-754 double.
func (c *Context) StoreFloat64(va mem.VAddr, v float64) {
	c.Store64(va, math.Float64bits(v))
}

// LoadFloat32 loads an IEEE-754 single.
func (c *Context) LoadFloat32(va mem.VAddr) float32 {
	return math.Float32frombits(c.Load32(va))
}

// StoreFloat32 stores an IEEE-754 single.
func (c *Context) StoreFloat32(va mem.VAddr, v float32) {
	c.Store32(va, math.Float32bits(v))
}

// AtomicAdd64 atomically adds delta to the 64-bit value at va and returns the
// previous value (fetch-and-add).
func (c *Context) AtomicAdd64(va mem.VAddr, delta uint64) uint64 {
	return c.do(Op{Kind: OpRMW, RMW: RMWAdd, Addr: va, Size: 8, Value: delta}).Value
}

// AtomicAdd32 atomically adds delta to the 32-bit value at va and returns the
// previous value.
func (c *Context) AtomicAdd32(va mem.VAddr, delta uint32) uint32 {
	return uint32(c.do(Op{Kind: OpRMW, RMW: RMWAdd, Addr: va, Size: 4, Value: uint64(delta)}).Value)
}

// AtomicCAS32 atomically replaces the 32-bit value at va with new if it
// equals old, reporting whether the swap happened.
func (c *Context) AtomicCAS32(va mem.VAddr, old, new uint32) bool {
	prev := uint32(c.do(Op{Kind: OpRMW, RMW: RMWCAS, Addr: va, Size: 4, Cmp: uint64(old), Value: uint64(new)}).Value)
	return prev == old
}

// AtomicExchange32 atomically stores new at va and returns the previous
// value.
func (c *Context) AtomicExchange32(va mem.VAddr, new uint32) uint32 {
	return uint32(c.do(Op{Kind: OpRMW, RMW: RMWExchange, Addr: va, Size: 4, Value: uint64(new)}).Value)
}

// Syscall invokes an OS service (CPU cores only; MTTOP cores reject it, as
// in the paper's design where MTTOP cores do not run the OS).
func (c *Context) Syscall(num int, args ...uint64) uint64 {
	return c.do(Op{Kind: OpSyscall, Syscall: int32(num), Args: args}).Value
}
