package cache

import (
	"testing"

	"ccsvm/internal/mem"
)

// BenchmarkArrayHit is an L1 hit: Touch of a resident line in the Table 2
// CPU L1 geometry (64 KiB, 4-way), cycling over 256 lines spread across the
// sets.
func BenchmarkArrayHit(b *testing.B) {
	a := NewArray(Config{SizeBytes: 64 * 1024, Assoc: 4, Name: "bench"})
	const lines = 256
	for i := 0; i < lines; i++ {
		l, _, _, _ := a.Allocate(mem.LineAddr(i * 7))
		l.State = Shared
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a.Touch(mem.LineAddr(i%lines*7)) == nil {
			b.Fatal("resident line missing")
		}
	}
}

// BenchmarkArrayFillEvict is a miss that installs a line into a full set:
// Allocate evicts the LRU way. The address stream runs over twice the
// capacity of a 16 KiB 4-way array, so after the first pass every set is
// materialised and every Allocate evicts.
func BenchmarkArrayFillEvict(b *testing.B) {
	cfg := Config{SizeBytes: 16 * 1024, Assoc: 4, Name: "bench"}
	a := NewArray(cfg)
	span := 2 * cfg.SizeBytes / mem.LineSize
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, _, _, ok := a.Allocate(mem.LineAddr(i % span))
		if !ok {
			b.Fatal("allocation failed")
		}
		l.State = Shared
	}
}
