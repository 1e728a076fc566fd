package exec

import (
	"testing"

	"ccsvm/internal/sim"
)

// benchCore drives one thread the way a core model does: each published
// operation completes one picosecond later, from an engine event.
type benchCore struct {
	eng     *sim.Engine
	th      *Thread
	fetchFn func()
	doneFn  func()
}

func (c *benchCore) fetch() {
	if _, st := c.th.TryNext(c.fetchFn); st == NextOp {
		c.eng.Schedule(sim.Picosecond, c.doneFn)
	}
}

func (c *benchCore) done() {
	c.th.Complete(Result{})
	c.fetch()
}

// benchmarkGate times one operation of a run of the given number of
// threads on a real engine. With one thread every completion is the
// driving thread's own; with more, completions rotate between them, so each
// is a cross-thread hand-off.
func benchmarkGate(b *testing.B, threads int) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	g := NewGate()
	g.Bind(eng)
	ops := max(1, b.N/threads)
	for i := 0; i < threads; i++ {
		c := &benchCore{eng: eng}
		c.fetchFn, c.doneFn = c.fetch, c.done
		c.th = NewThread(g, i, "bench", func(ctx *Context) {
			for j := 0; j < ops; j++ {
				ctx.Compute(1)
			}
		})
		c.th.Start()
		eng.Schedule(0, c.fetchFn)
	}
	b.ResetTimer()
	g.Drive(eng.Step)
}

// BenchmarkGateSelfOp is the zero-switch path: one thread whose every
// operation completes while it drives (perfbench's exec.self_op).
func BenchmarkGateSelfOp(b *testing.B) { benchmarkGate(b, 1) }

// BenchmarkGateSwitch alternates completions between two threads, so every
// operation is a cross-thread hand-off (perfbench's exec.switch).
func BenchmarkGateSwitch(b *testing.B) { benchmarkGate(b, 2) }

// BenchmarkGateSwitch64 rotates completions among 64 threads, the MTTOP
// thread count of the ccsvm-readshare workload.
func BenchmarkGateSwitch64(b *testing.B) { benchmarkGate(b, 64) }
