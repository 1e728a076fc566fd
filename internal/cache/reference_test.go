package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"ccsvm/internal/mem"
)

// refArray is the flat array every way of which is allocated up front: the
// implementation Array replaced, kept as the reference model its lazily
// materialised sets must be observation-equivalent to.
type refArray struct {
	cfg     Config
	sets    [][]Line
	numSets int
	tick    uint64
}

func newRefArray(cfg Config) *refArray {
	numSets := cfg.NumSets()
	flat := make([]Line, numSets*cfg.Assoc)
	sets := make([][]Line, numSets)
	for i := range sets {
		sets[i] = flat[i*cfg.Assoc : (i+1)*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	return &refArray{cfg: cfg, sets: sets, numSets: numSets}
}

func (a *refArray) lookup(addr mem.LineAddr) *Line {
	set := a.sets[uint64(addr)%uint64(a.numSets)]
	for i := range set {
		if set[i].Valid && set[i].Addr == addr {
			return &set[i]
		}
	}
	return nil
}

func (a *refArray) touch(addr mem.LineAddr) *Line {
	l := a.lookup(addr)
	if l != nil {
		a.tick++
		l.lru = a.tick
	}
	return l
}

func (a *refArray) allocate(addr mem.LineAddr) (line *Line, victim Line, evicted bool, ok bool) {
	set := a.sets[uint64(addr)%uint64(a.numSets)]
	var candidate *Line
	for i := range set {
		if !set[i].Valid {
			candidate = &set[i]
			break
		}
	}
	if candidate == nil {
		for i := range set {
			if !set[i].State.Stable() {
				continue
			}
			if candidate == nil || set[i].lru < candidate.lru {
				candidate = &set[i]
			}
		}
		if candidate == nil {
			return nil, Line{}, false, false
		}
		victim = *candidate
		evicted = true
	}
	a.tick++
	*candidate = Line{Valid: true, Addr: addr, State: Invalid, lru: a.tick}
	return candidate, victim, evicted, true
}

func (a *refArray) invalidate(addr mem.LineAddr) {
	if l := a.lookup(addr); l != nil {
		*l = Line{}
	}
}

func (a *refArray) valid() []Line {
	var out []Line
	for _, set := range a.sets {
		for i := range set {
			if set[i].Valid {
				out = append(out, set[i])
			}
		}
	}
	return out
}

// refGeometries are the array shapes the equivalence checks run on: one set,
// fewer sets than a slab, exactly one slab, a set count that leaves the last
// slab part-used, and several slabs.
var refGeometries = []Config{
	{SizeBytes: 4 * mem.LineSize, Assoc: 4, Name: "one-set"},
	{SizeBytes: 4096, Assoc: 4, Name: "sixteen-sets"},
	{SizeBytes: 8 * mem.LineSize, Assoc: 1, Name: "direct-mapped"},
	{SizeBytes: 20 * 2 * mem.LineSize, Assoc: 2, Name: "twenty-sets"},
	{SizeBytes: 64 * 8 * mem.LineSize, Assoc: 8, Name: "four-slabs"},
}

// refOp kinds. States are drawn from every stable and transient state, so
// sets fill with ways a transaction holds and Allocate must skip them.
const (
	opAccess = iota // Touch if present, else Allocate
	opTouch
	opInvalidate
	opSetState
	opSetDirty
	numRefOps
)

// checkAgainstReference applies ops to an Array and a refArray side by side
// and fails on the first observable difference. Each op is (kind, addr,
// state); addresses are taken modulo four times the array's capacity so
// sets see evictions. Lookup is compared before every op, the first one
// included, so every sequence looks up an array before its first Allocate.
func checkAgainstReference(t testing.TB, cfg Config, ops [][3]int) {
	t.Helper()
	got, want := NewArray(cfg), newRefArray(cfg)
	span := 4 * cfg.SizeBytes / mem.LineSize
	for step, op := range ops {
		addr := mem.LineAddr(op[1] % span)
		state := State(op[2] % int(ISDI+1))
		where := fmt.Sprintf("%s step %d op %d addr %d", cfg.Name, step, op[0], addr)
		gl, wl := got.Lookup(addr), want.lookup(addr)
		if (gl == nil) != (wl == nil) || (gl != nil && *gl != *wl) {
			t.Fatalf("%s: Lookup = %+v, want %+v", where, gl, wl)
		}
		switch op[0] % numRefOps {
		case opAccess:
			if wl != nil {
				got.Touch(addr)
				want.touch(addr)
				break
			}
			gLine, gVictim, gEvicted, gOK := got.Allocate(addr)
			wLine, wVictim, wEvicted, wOK := want.allocate(addr)
			if gOK != wOK || gEvicted != wEvicted || gVictim != wVictim ||
				(gLine == nil) != (wLine == nil) || (gLine != nil && *gLine != *wLine) {
				t.Fatalf("%s: Allocate = (%+v, %+v, %v, %v), want (%+v, %+v, %v, %v)",
					where, gLine, gVictim, gEvicted, gOK, wLine, wVictim, wEvicted, wOK)
			}
			if gOK {
				gLine.State, wLine.State = state, state
			}
		case opTouch:
			got.Touch(addr)
			want.touch(addr)
		case opInvalidate:
			got.Invalidate(addr)
			want.invalidate(addr)
		case opSetState:
			if wl != nil {
				gl.State, wl.State = state, state
			}
		case opSetDirty:
			if wl != nil {
				gl.Dirty, wl.Dirty = !wl.Dirty, !wl.Dirty
			}
		}
		wantLines := want.valid()
		if got.Occupancy() != len(wantLines) {
			t.Fatalf("%s: Occupancy = %d, want %d", where, got.Occupancy(), len(wantLines))
		}
		i := 0
		got.ForEach(func(l *Line) {
			if i >= len(wantLines) || *l != wantLines[i] {
				t.Fatalf("%s: ForEach line %d = %+v, want %v", where, i, *l, wantLines)
			}
			i++
		})
	}
}

// TestArrayMatchesReference drives the lazy array and the eager reference
// with seeded random op sequences on every reference geometry.
func TestArrayMatchesReference(t *testing.T) {
	for _, cfg := range refGeometries {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ops := make([][3]int, 600)
			for i := range ops {
				// Bias towards accesses so sets fill up and evict.
				kind := opAccess
				if rng.Intn(3) == 0 {
					kind = 1 + rng.Intn(numRefOps-1)
				}
				ops[i] = [3]int{kind, rng.Int(), rng.Int()}
			}
			checkAgainstReference(t, cfg, ops)
		}
	}
}

// FuzzArrayReference decodes op sequences from fuzzer bytes: the first byte
// picks the geometry, then every three bytes are one (kind, addr, state) op.
func FuzzArrayReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 4, 1, 0, 8, 2, 0, 12, 3, 0, 16, 5})
	f.Add([]byte{1, 0, 1, 6, 0, 17, 6, 0, 33, 6, 0, 49, 6, 0, 65, 0, 2, 17, 0})
	f.Add([]byte{3, 0, 3, 0, 0, 23, 0, 0, 43, 0, 2, 3, 0, 0, 63, 0, 4, 23, 0})
	f.Add([]byte{4, 0, 0, 0, 0, 64, 0, 0, 128, 0, 0, 192, 1, 0, 0, 0, 0, 255, 9})
	// Invalidate, touch, set state and set dirty on an array before its
	// first Allocate, then fill the address they named.
	f.Add([]byte{2, 2, 5, 0, 1, 5, 0, 3, 5, 2, 4, 5, 0, 0, 5, 1, 2, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := refGeometries[int(data[0])%len(refGeometries)]
		var ops [][3]int
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			ops = append(ops, [3]int{int(b[0]), int(b[1]), int(b[2])})
		}
		checkAgainstReference(t, cfg, ops)
	})
}

// TestArrayLinePointerStability checks that a *Line from Allocate keeps
// aliasing the array after its own set fills and after later sets use up
// its slab and force new ones.
func TestArrayLinePointerStability(t *testing.T) {
	cfg := Config{SizeBytes: 64 * 4 * mem.LineSize, Assoc: 4, Name: "stable"} // 64 sets, four slabs
	a := NewArray(cfg)
	sets := cfg.NumSets()
	first, _, _, ok := a.Allocate(0)
	if !ok {
		t.Fatal("first allocation failed")
	}
	first.State = Shared
	// Fill the rest of set 0, then every other set's ways.
	for way := 1; way < cfg.Assoc; way++ {
		l, _, _, _ := a.Allocate(mem.LineAddr(way * sets))
		l.State = Shared
	}
	for set := 1; set < sets; set++ {
		for way := 0; way < cfg.Assoc; way++ {
			l, _, evicted, ok := a.Allocate(mem.LineAddr(way*sets + set))
			if !ok || evicted {
				t.Fatalf("filling set %d way %d: ok=%v evicted=%v", set, way, ok, evicted)
			}
			l.State = Shared
		}
	}
	if got := a.Lookup(0); got != first {
		t.Fatalf("Lookup(0) = %p, want the pointer Allocate returned (%p)", got, first)
	}
	first.State = Modified
	first.Dirty = true
	if got := a.Lookup(0); got.State != Modified || !got.Dirty {
		t.Fatalf("write through the allocated pointer not seen: %+v", *got)
	}
	if a.Occupancy() != sets*cfg.Assoc {
		t.Fatalf("Occupancy = %d, want %d", a.Occupancy(), sets*cfg.Assoc)
	}
}
