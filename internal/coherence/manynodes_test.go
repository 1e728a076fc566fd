package coherence_test

import (
	"fmt"
	"testing"

	"ccsvm/internal/core"
	"ccsvm/internal/mem"
	"ccsvm/internal/xthreads"
)

// TestChipBeyond64Nodes runs a chip whose MTTOP L1s have node IDs on both
// sides of 64, so directory sharer sets use their overflow words: one warp on
// every MTTOP core reads a shared word, the CPU overwrites it (one
// invalidation round over all 70 MTTOP L1s), and a second wave must read the
// new value with no coherence violation.
func TestChipBeyond64Nodes(t *testing.T) {
	cfg := core.SmallConfig()
	cfg.NumMTTOPs = 70
	m := core.NewMachine(cfg)
	defer m.Shutdown()
	n := cfg.NumMTTOPs * cfg.MIFD.WarpSize // one warp per MTTOP core

	readKernel := m.RegisterKernel(func(ctx *xthreads.MTTOPContext) {
		args := ctx.Args()
		shared := mem.VAddr(ctx.Load64(args))
		out := mem.VAddr(ctx.Load64(args + 8))
		done := mem.VAddr(ctx.Load64(args + 16))
		ctx.Store64(out+mem.VAddr(8*ctx.TID()), ctx.Load64(shared))
		ctx.SignalSlot(done, 0)
	})
	var out mem.VAddr
	_, err := m.RunProgram(func(ctx *xthreads.CPUContext) {
		shared := ctx.Malloc(8)
		out = ctx.Malloc(uint64(8 * n))
		done := ctx.Malloc(uint64(4 * n))
		args := ctx.Malloc(24)
		ctx.Store64(args, uint64(shared))
		ctx.Store64(args+8, uint64(out))
		ctx.Store64(args+16, uint64(done))
		for v := uint64(1); v <= 2; v++ {
			ctx.Store64(shared, v)
			ctx.InitConditions(done, 0, n-1, xthreads.CondIdle)
			ctx.CreateMThreads(readKernel, args, 0, n-1)
			ctx.Wait(done, 0, n-1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := m.MemReadUint64(out + mem.VAddr(8*i)); got != 2 {
			t.Fatalf("thread %d read %d, want 2", i, got)
		}
	}
	// Every MTTOP L1, up to node ID 71, received the CPU write's
	// invalidation.
	for i, l1 := range m.L1Controllers()[cfg.NumCPUs:] {
		name := fmt.Sprintf("mttop%d.l1.invalidations", i)
		if v, _ := m.Stats.Lookup(name); v == 0 {
			t.Fatalf("%s (node %d) = 0, want the CPU write's invalidation", name, l1.NodeID())
		}
	}
	if !m.Checker.Ok() {
		t.Fatalf("coherence violations: %v", m.Checker.Violations)
	}
}
