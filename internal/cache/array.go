package cache

import (
	"fmt"

	"ccsvm/internal/mem"
)

// Line is one cache line's bookkeeping in a set-associative array. The
// eight-byte fields come first so a way packs into 24 bytes.
type Line struct {
	// Addr is the line address of the block held in this way.
	Addr mem.LineAddr
	// lru is the logical timestamp of the last touch.
	lru uint64
	// Valid marks an allocated way (any state other than an empty slot).
	Valid bool
	// State is the coherence state (used by the L1s and, with a narrower
	// set of states, the L2 data array where Dirty matters).
	State State
	// Dirty marks an L2 block newer than DRAM.
	Dirty bool
}

// Config describes a set-associative array.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Assoc is the number of ways per set.
	Assoc int
	// Name is used in error messages and stats.
	Name string
}

// Validate reports whether the geometry describes a buildable array: a
// positive associativity and a size that is a whole number of lines, at
// least one set, and a whole number of sets.
func (c Config) Validate() error {
	switch {
	case c.Assoc <= 0:
		return fmt.Errorf("associativity %d is not positive", c.Assoc)
	case c.SizeBytes <= 0 || c.SizeBytes%mem.LineSize != 0:
		return fmt.Errorf("size %d bytes is not a positive multiple of the %d-byte line",
			c.SizeBytes, mem.LineSize)
	case c.SizeBytes/mem.LineSize < c.Assoc:
		return fmt.Errorf("size %d bytes is smaller than one %d-way set", c.SizeBytes, c.Assoc)
	case c.SizeBytes/mem.LineSize%c.Assoc != 0:
		return fmt.Errorf("%d lines do not divide into %d-way sets", c.SizeBytes/mem.LineSize, c.Assoc)
	}
	return nil
}

// NumSets returns the number of sets implied by the configuration. An
// invalid geometry is a programming error and panics; configurations that
// come from users are checked with Validate first.
func (c Config) NumSets() int {
	if err := c.Validate(); err != nil {
		panic(fmt.Sprintf("cache: invalid geometry for %s: %v", c.Name, err))
	}
	return c.SizeBytes / mem.LineSize / c.Assoc
}

// Array is a set-associative structure with LRU replacement. It stores no
// data, only tags and state; functional data lives in mem.Physical.
type Array struct {
	cfg Config
	// sets[i] holds set i's materialised ways, in way order. The table
	// itself is nil until the first Allocate into the array. A set is nil
	// until the first Allocate into it; it then grows one way at a time
	// within the Assoc-way capacity it was carved with, so it never moves.
	sets [][]Line
	// slab is the not yet carved tail of the current slab, which new sets
	// take their ways from.
	slab    []Line
	numSets int
	tick    uint64
}

// slabSets is how many sets' worth of ways one slab allocation holds.
const slabSets = 16

// NewArray builds an array from the configuration. Nothing but the Array
// itself is allocated here: the set table is made on the first Allocate
// into the array, and a set's ways are carved out of a shared slab on the
// first Allocate into that set, a slab holding min(numSets, 16) sets. A
// machine builds dozens of arrays, megabytes of tags in all, and a run
// touches only a small part of them, many not at all; slabs keep the sets a
// run does touch from costing one allocation each. Slabs never move, so a
// *Line stays valid for the life of the array.
func NewArray(cfg Config) *Array {
	return &Array{cfg: cfg, numSets: cfg.NumSets()}
}

// Config returns the array configuration.
func (a *Array) Config() Config { return a.cfg }

// SetIndex returns the set an address maps to.
func (a *Array) SetIndex(addr mem.LineAddr) int {
	return int(uint64(addr) % uint64(a.numSets))
}

// Lookup returns the line holding addr, or nil if it is not present.
// Lookup does not update LRU state; use Touch for accesses.
//
//ccsvm:hotpath
func (a *Array) Lookup(addr mem.LineAddr) *Line {
	// The table is empty until the first Allocate; this comparison stands
	// in for the bounds check the index would otherwise get.
	idx := a.SetIndex(addr)
	if uint(idx) >= uint(len(a.sets)) {
		return nil
	}
	set := a.sets[idx]
	for i := range set {
		if set[i].Valid && set[i].Addr == addr {
			return &set[i]
		}
	}
	return nil
}

// Touch marks the line as most recently used and returns it, or nil if the
// address is not present.
//
//ccsvm:hotpath
func (a *Array) Touch(addr mem.LineAddr) *Line {
	l := a.Lookup(addr)
	if l != nil {
		a.tick++
		l.lru = a.tick
	}
	return l
}

// Allocate installs addr into its set and returns the line, plus the victim
// line's previous contents if an occupied way had to be evicted. Only ways in
// a stable state are considered victims; if every way is transient (an
// outstanding transaction holds it), Allocate returns ok=false and the caller
// must retry later.
//
// The way chosen is the first invalid one, else a way not yet materialised,
// else the least recently used stable one. Unmaterialised ways are the
// trailing empty ways of a fully built set, so this is the way an array
// with every way allocated up front would pick.
//
// The returned line is in state Invalid / not dirty; the caller sets its
// state.
//
//ccsvm:hotpath
func (a *Array) Allocate(addr mem.LineAddr) (line *Line, victim Line, evicted bool, ok bool) {
	if l := a.Lookup(addr); l != nil {
		panic(fmt.Sprintf("cache: %s allocate of already-present %v", a.cfg.Name, addr))
	}
	// Take the index before the table may be made: with that store in
	// between, the compiler divides again instead of reusing Lookup's index.
	idx := a.SetIndex(addr)
	if a.sets == nil {
		a.sets = make([][]Line, a.numSets) //ccsvm:allocok // once per array, on its first fill
	}
	set := a.sets[idx]
	// Prefer an empty way.
	var candidate *Line
	for i := range set {
		if !set[i].Valid {
			candidate = &set[i]
			break
		}
	}
	if candidate == nil && len(set) < a.cfg.Assoc {
		// Materialise the next way, carving the set out of the slab on its
		// first fill.
		if set == nil {
			if len(a.slab) == 0 {
				a.slab = make([]Line, min(a.numSets, slabSets)*a.cfg.Assoc) //ccsvm:allocok // amortised: one slab per 16 first fills
			}
			set = a.slab[:0:a.cfg.Assoc]
			a.slab = a.slab[a.cfg.Assoc:]
		}
		set = set[:len(set)+1]
		a.sets[idx] = set
		candidate = &set[len(set)-1]
	}
	if candidate == nil {
		// Pick the least recently used stable way.
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

// Invalidate removes addr from the array if present.
func (a *Array) Invalidate(addr mem.LineAddr) {
	if l := a.Lookup(addr); l != nil {
		*l = Line{}
	}
}

// Occupancy reports how many valid lines the array currently holds.
func (a *Array) Occupancy() int {
	n := 0
	for _, set := range a.sets {
		for i := range set {
			if set[i].Valid {
				n++
			}
		}
	}
	return n
}

// ForEach calls fn on every valid line, in set and then way order. Mutating
// the line through the pointer is allowed.
func (a *Array) ForEach(fn func(l *Line)) {
	for _, set := range a.sets {
		for i := range set {
			if set[i].Valid {
				fn(&set[i])
			}
		}
	}
}
