package apu

import (
	"ccsvm/internal/cache"
	"ccsvm/internal/dram"
	"ccsvm/internal/mem"
	"ccsvm/internal/sim"
	"ccsvm/internal/stats"
)

// GPUMemory is the GPU side of the APU's memory system: accesses bypass the
// CPU caches and go to DRAM over the high-bandwidth "garlic" path, with a
// small read cache and a write-combining buffer that model the coalescing a
// real GPU performs across the lanes of a wavefront. It implements mem.Port
// and is shared by all SIMD units.
type GPUMemory struct {
	engine *sim.Engine
	dram   *dram.Controller

	readCache *cache.Array
	readHit   sim.Duration

	// writeBuf holds lines with pending partial writes, mapped to their
	// insertion sequence so eviction is FIFO (and deterministic); a full or
	// evicted line costs one DRAM write.
	writeBuf     map[mem.LineAddr]int
	writeSeq     int
	writeBufMax  int
	combinedWr   *stats.Counter
	readHits     *stats.Counter
	readMisses   *stats.Counter
	uncombinedWr *stats.Counter

	// freeMisses recycles the records of completed read misses, so a miss
	// costs no allocation once the in-flight high-water mark is reached.
	freeMisses []*gpuReadMiss
}

// gpuReadMiss is one read miss in flight to DRAM; fill is bound once per
// record and handed to the DRAM model as the completion callback.
type gpuReadMiss struct {
	g    *GPUMemory
	line mem.LineAddr
	done func()
	fill func()
}

// GPUMemConfig describes the GPU memory path.
type GPUMemConfig struct {
	// ReadCacheBytes is the small on-GPU read cache (per-chip aggregate).
	ReadCacheBytes int
	// ReadCacheAssoc is its associativity.
	ReadCacheAssoc int
	// ReadHit is the read-cache hit latency.
	ReadHit sim.Duration
	// WriteBufferLines is the capacity of the write-combining buffer.
	WriteBufferLines int
}

// DefaultGPUMemConfig returns the GPU memory-path parameters used for the
// Llano-like baseline.
func DefaultGPUMemConfig() GPUMemConfig {
	return GPUMemConfig{
		ReadCacheBytes:   32 * 1024,
		ReadCacheAssoc:   8,
		ReadHit:          2 * sim.Nanosecond,
		WriteBufferLines: 32,
	}
}

// NewGPUMemory builds the GPU memory path.
func NewGPUMemory(engine *sim.Engine, cfg GPUMemConfig, d *dram.Controller, reg *stats.Registry) *GPUMemory {
	g := &GPUMemory{
		engine:      engine,
		dram:        d,
		readCache:   cache.NewArray(cache.Config{SizeBytes: cfg.ReadCacheBytes, Assoc: cfg.ReadCacheAssoc, Name: "gpu.rdcache"}),
		readHit:     cfg.ReadHit,
		writeBuf:    make(map[mem.LineAddr]int),
		writeBufMax: cfg.WriteBufferLines,
	}
	g.readHits = reg.Counter("gpu.mem.read_hits")
	g.readMisses = reg.Counter("gpu.mem.read_misses")
	g.combinedWr = reg.Counter("gpu.mem.combined_writes")
	g.uncombinedWr = reg.Counter("gpu.mem.write_lines")
	return g
}

// Access implements mem.Port.
func (g *GPUMemory) Access(req mem.Request, done func()) {
	line := req.Line()
	if req.Type.NeedsExclusive() {
		// Write-combining: the first write to a line reserves a buffer slot;
		// subsequent writes to the same line merge for free. When the buffer
		// fills, the oldest line is written to DRAM.
		if _, ok := g.writeBuf[line]; ok {
			g.combinedWr.Inc()
			g.engine.Schedule(g.readHit, done)
			return
		}
		if len(g.writeBuf) >= g.writeBufMax {
			g.flushOneLine()
		}
		g.writeSeq++
		g.writeBuf[line] = g.writeSeq
		g.uncombinedWr.Inc()
		g.dram.Write(line, nil)
		g.engine.Schedule(g.readHit, done)
		return
	}
	if g.readCache.Touch(line) != nil {
		g.readHits.Inc()
		g.engine.Schedule(g.readHit, done)
		return
	}
	g.readMisses.Inc()
	var m *gpuReadMiss
	if n := len(g.freeMisses); n > 0 {
		m = g.freeMisses[n-1]
		g.freeMisses = g.freeMisses[:n-1]
	} else {
		m = &gpuReadMiss{g: g}
		m.fill = m.complete
	}
	m.line, m.done = line, done
	g.dram.Read(line, m.fill)
}

// complete installs the missed line in the read cache and finishes the
// access after the hit latency.
func (m *gpuReadMiss) complete() {
	g, line, done := m.g, m.line, m.done
	m.done = nil
	g.freeMisses = append(g.freeMisses, m)
	// Another in-flight miss to the same line may already have filled it.
	if g.readCache.Lookup(line) == nil {
		if l, _, _, ok := g.readCache.Allocate(line); ok {
			l.State = cache.Shared
		}
	}
	g.engine.Schedule(g.readHit, done)
}

func (g *GPUMemory) flushOneLine() {
	oldest := mem.LineAddr(0)
	oldestSeq := g.writeSeq + 1
	//ccsvm:orderinvariant
	for line, seq := range g.writeBuf {
		if seq < oldestSeq {
			oldestSeq = seq
			oldest = line
		}
	}
	if oldestSeq <= g.writeSeq {
		delete(g.writeBuf, oldest)
	}
}

// InvalidateAll drops the read cache and write buffer (between kernels).
func (g *GPUMemory) InvalidateAll() {
	g.readCache.ForEach(func(l *cache.Line) { l.Valid = false })
	g.writeBuf = make(map[mem.LineAddr]int)
}

var _ mem.Port = (*GPUMemory)(nil)
