package cache

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"ccsvm/internal/mem"
)

func testConfig() Config {
	return Config{SizeBytes: 4096, Assoc: 4, Name: "test"} // 16 sets of 4
}

func TestStateHelpers(t *testing.T) {
	stable := []State{Invalid, Shared, Exclusive, Owned, Modified}
	for _, s := range stable {
		if !s.Stable() || s.Transient() {
			t.Fatalf("%v should be stable", s)
		}
	}
	transient := []State{ISD, IMAD, IMA, SMAD, SMA, MIA, OIA, EIA, IIA, ISDI}
	for _, s := range transient {
		if s.Stable() || !s.Transient() {
			t.Fatalf("%v should be transient", s)
		}
		if s.String() == "" {
			t.Fatalf("%v has no name", s)
		}
	}
	if Invalid.CanRead() || !Shared.CanRead() || !Modified.CanRead() {
		t.Fatal("CanRead wrong")
	}
	if Shared.CanWrite() || Owned.CanWrite() || !Exclusive.CanWrite() || !Modified.CanWrite() {
		t.Fatal("CanWrite wrong")
	}
	if !Modified.Dirty() || !Owned.Dirty() || Exclusive.Dirty() || Shared.Dirty() {
		t.Fatal("Dirty wrong")
	}
	if !Modified.IsOwnerState() || !Owned.IsOwnerState() || !Exclusive.IsOwnerState() || Shared.IsOwnerState() {
		t.Fatal("IsOwnerState wrong")
	}
}

func TestConfigGeometry(t *testing.T) {
	cfg := Config{SizeBytes: 64 * 1024, Assoc: 4, Name: "l1"}
	if got := cfg.NumSets(); got != 256 {
		t.Fatalf("64KB 4-way has %d sets, want 256", got)
	}
	bad := Config{SizeBytes: 1000, Assoc: 4, Name: "bad"} // 15 lines do not divide into 4 ways
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid geometry")
		}
	}()
	bad.NumSets()
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{SizeBytes: 64 * 1024, Assoc: 4},
		{SizeBytes: mem.LineSize, Assoc: 1},
		{SizeBytes: 3 * 2 * mem.LineSize, Assoc: 2}, // three sets: need not be a power of two
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
	}
	bad := []Config{
		{SizeBytes: 64 * 1024, Assoc: 0},
		{SizeBytes: 64 * 1024, Assoc: -4},
		{SizeBytes: 0, Assoc: 4},
		{SizeBytes: 1000, Assoc: 1},             // not a whole number of lines
		{SizeBytes: 32, Assoc: 1},               // smaller than a line
		{SizeBytes: 2 * mem.LineSize, Assoc: 4}, // smaller than one set
		{SizeBytes: 64 * 1024, Assoc: 3},        // 1024 lines, 3 ways
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Errorf("%+v: Validate accepted an unbuildable geometry", c)
		}
	}
}

func TestArrayLookupTouchAllocate(t *testing.T) {
	a := NewArray(testConfig())
	addr := mem.LineAddr(0x40)
	if a.Lookup(addr) != nil {
		t.Fatal("empty array lookup should be nil")
	}
	line, _, evicted, ok := a.Allocate(addr)
	if !ok || evicted {
		t.Fatal("first allocation should succeed without eviction")
	}
	line.State = Shared
	if got := a.Touch(addr); got == nil || got.State != Shared {
		t.Fatal("touch after allocate failed")
	}
	if a.Occupancy() != 1 {
		t.Fatalf("occupancy = %d, want 1", a.Occupancy())
	}
	a.Invalidate(addr)
	if a.Lookup(addr) != nil {
		t.Fatal("lookup after invalidate should be nil")
	}
}

// arraySink keeps NewArray's result on the heap in TestUntouchedArray.
var arraySink *Array

// TestUntouchedArray pins that an array costs nothing beyond its header
// until the first Allocate: NewArray allocates as many bytes for 4096 sets
// as for one, and an array never allocated into finds nothing, holds
// nothing and visits nothing.
func TestUntouchedArray(t *testing.T) {
	newBytes := func(cfg Config) uint64 {
		const builds = 64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < builds; i++ {
			arraySink = NewArray(cfg)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / builds
	}
	oneSet := Config{SizeBytes: 4 * mem.LineSize, Assoc: 4, Name: "one-set"}
	wide := Config{SizeBytes: 4096 * 4 * mem.LineSize, Assoc: 4, Name: "4096-sets"}
	// A set table for 4096 sets would be 96 KiB; the slack only absorbs a
	// stray allocation elsewhere in the process during the builds.
	if small, large := newBytes(oneSet), newBytes(wide); large > small+1024 {
		t.Fatalf("NewArray allocates %d bytes for 4096 sets, %d for one: want the same", large, small)
	}

	a := NewArray(wide)
	for _, addr := range []mem.LineAddr{0, 1, 4095, 4096, 1 << 40} {
		if l := a.Lookup(addr); l != nil {
			t.Fatalf("Lookup(%d) on an untouched array = %+v, want nil", addr, *l)
		}
		if l := a.Touch(addr); l != nil {
			t.Fatalf("Touch(%d) on an untouched array = %+v, want nil", addr, *l)
		}
		a.Invalidate(addr)
	}
	if n := a.Occupancy(); n != 0 {
		t.Fatalf("Occupancy of an untouched array = %d, want 0", n)
	}
	a.ForEach(func(l *Line) { t.Fatalf("ForEach on an untouched array visited %+v", *l) })
}

func TestArrayDoubleAllocatePanics(t *testing.T) {
	a := NewArray(testConfig())
	l, _, _, _ := a.Allocate(0x40)
	l.State = Shared
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double allocate")
		}
	}()
	a.Allocate(0x40)
}

func TestArrayLRUEviction(t *testing.T) {
	cfg := testConfig()
	a := NewArray(cfg)
	sets := cfg.NumSets()
	// Fill one set (addresses that map to set 0): line addresses 0, sets, 2*sets, ...
	addrs := make([]mem.LineAddr, cfg.Assoc+1)
	for i := range addrs {
		addrs[i] = mem.LineAddr(i * sets)
	}
	for i := 0; i < cfg.Assoc; i++ {
		l, _, evicted, ok := a.Allocate(addrs[i])
		if !ok || evicted {
			t.Fatalf("allocation %d should not evict", i)
		}
		l.State = Shared
	}
	// Touch all but addrs[1], making it LRU.
	for i := 0; i < cfg.Assoc; i++ {
		if i != 1 {
			a.Touch(addrs[i])
		}
	}
	_, victim, evicted, ok := a.Allocate(addrs[cfg.Assoc])
	if !ok || !evicted {
		t.Fatal("allocation into a full set must evict")
	}
	if victim.Addr != addrs[1] {
		t.Fatalf("victim = %v, want LRU line %v", victim.Addr, addrs[1])
	}
}

func TestArrayAllocateSkipsTransientLines(t *testing.T) {
	cfg := testConfig()
	a := NewArray(cfg)
	sets := cfg.NumSets()
	for i := 0; i < cfg.Assoc; i++ {
		l, _, _, _ := a.Allocate(mem.LineAddr(i * sets))
		l.State = IMAD // every way has an outstanding transaction
	}
	_, _, _, ok := a.Allocate(mem.LineAddr(cfg.Assoc * sets))
	if ok {
		t.Fatal("allocation should fail when every way is transient")
	}
	// Make one line stable again; allocation must now succeed and pick it.
	stable := a.Lookup(mem.LineAddr(2 * sets))
	stable.State = Shared
	_, victim, evicted, ok := a.Allocate(mem.LineAddr(cfg.Assoc * sets))
	if !ok || !evicted || victim.Addr != mem.LineAddr(2*sets) {
		t.Fatalf("allocation should evict the only stable line, got victim %v ok=%v", victim.Addr, ok)
	}
}

// Property: the array never holds more lines than its capacity and never
// holds the same address twice, under any access pattern.
func TestArrayCapacityProperty(t *testing.T) {
	cfg := testConfig()
	capacity := cfg.SizeBytes / mem.LineSize
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewArray(cfg)
		for i := 0; i < 500; i++ {
			addr := mem.LineAddr(rng.Intn(256))
			if a.Touch(addr) == nil {
				l, _, _, ok := a.Allocate(addr)
				if !ok {
					return false
				}
				l.State = Shared
			}
		}
		if a.Occupancy() > capacity {
			return false
		}
		seen := make(map[mem.LineAddr]int)
		a.ForEach(func(l *Line) { seen[l.Addr]++ })
		for _, n := range seen {
			if n > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: a just-touched line is never the LRU victim.
func TestArrayLRUProperty(t *testing.T) {
	cfg := testConfig()
	sets := cfg.NumSets()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewArray(cfg)
		for i := 0; i < cfg.Assoc; i++ {
			l, _, _, _ := a.Allocate(mem.LineAddr(i * sets))
			l.State = Shared
		}
		protect := mem.LineAddr(rng.Intn(cfg.Assoc) * sets)
		a.Touch(protect)
		_, victim, evicted, ok := a.Allocate(mem.LineAddr(cfg.Assoc * sets))
		return ok && evicted && victim.Addr != protect
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
