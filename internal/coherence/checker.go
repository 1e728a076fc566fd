package coherence

import (
	"fmt"

	"ccsvm/internal/cache"
	"ccsvm/internal/mem"
	"ccsvm/internal/noc"
)

// Checker verifies the single-writer/multiple-reader (SWMR) invariant on
// every stable-state transition reported by the L1 controllers. It is cheap
// enough to stay enabled in normal runs and is the backbone of the protocol's
// property-based stress tests.
type Checker struct {
	// lines holds the record of every line some cache holds in a stable
	// state. A record whose last holder drops the line returns to free.
	lines map[mem.LineAddr]*lineHolders
	free  []*lineHolders
	// Violations collects human-readable descriptions of invariant
	// violations; tests assert this stays empty.
	Violations []string
	// enabled gates checking; a disabled checker records nothing.
	enabled bool
}

// lineHolders is one line's stable holders with running counts of the
// holders that may write, may read, and hold an owner state, so a check is
// three comparisons rather than a walk.
type lineHolders struct {
	held                     []holder
	writers, readers, owners int
}

type holder struct {
	node noc.NodeID
	st   cache.State
}

// count adds d to the tallies st contributes to.
func (h *lineHolders) count(st cache.State, d int) {
	if st.CanWrite() {
		h.writers += d
	}
	if st.CanRead() {
		h.readers += d
	}
	if st == cache.Owned || st == cache.Modified || st == cache.Exclusive {
		h.owners += d
	}
}

// NewChecker returns an enabled checker.
func NewChecker() *Checker {
	return &Checker{lines: make(map[mem.LineAddr]*lineHolders), enabled: true}
}

// SetEnabled turns checking on or off.
func (c *Checker) SetEnabled(on bool) { c.enabled = on }

// Record notes that the cache at node now holds addr in the given stable
// state (Invalid removes the entry) and re-checks the invariant for that
// line.
//
//ccsvm:hotpath
func (c *Checker) Record(node noc.NodeID, addr mem.LineAddr, st cache.State) {
	if c == nil || !c.enabled {
		return
	}
	if !st.Stable() {
		return
	}
	h := c.lines[addr]
	if h == nil {
		if st == cache.Invalid {
			return
		}
		if n := len(c.free); n > 0 {
			h = c.free[n-1]
			c.free[n-1] = nil
			c.free = c.free[:n-1]
		} else {
			h = new(lineHolders) //ccsvm:allocok // pool miss; steady state reuses the free list
		}
		c.lines[addr] = h
	}
	i := 0
	for i < len(h.held) && h.held[i].node != node {
		i++
	}
	if i < len(h.held) {
		h.count(h.held[i].st, -1)
	}
	switch {
	case st == cache.Invalid:
		if i < len(h.held) {
			last := len(h.held) - 1
			h.held[i] = h.held[last]
			h.held = h.held[:last]
		}
		if len(h.held) == 0 {
			delete(c.lines, addr)
			c.free = append(c.free, h) //ccsvm:allocok // free list returns to its high-water mark
			return
		}
	case i < len(h.held):
		h.held[i].st = st
	default:
		h.held = append(h.held, holder{node, st}) //ccsvm:allocok // grows to the line's peak sharer count and is reused
	}
	h.count(st, 1)
	if h.writers > 1 || (h.writers == 1 && h.readers > 1) || h.owners > 1 {
		c.report(addr, h)
	}
}

// report appends the violations a line's tallies show.
func (c *Checker) report(addr mem.LineAddr, h *lineHolders) {
	holders := h.asMap()
	if h.writers > 1 {
		c.Violations = append(c.Violations,
			fmt.Sprintf("SWMR: %v has %d writers: %v", addr, h.writers, holders))
	}
	if h.writers == 1 && h.readers > 1 {
		c.Violations = append(c.Violations,
			fmt.Sprintf("SWMR: %v has a writer and %d readers: %v", addr, h.readers, holders))
	}
	if h.owners > 1 {
		c.Violations = append(c.Violations,
			fmt.Sprintf("ownership: %v has %d owner-state holders: %v", addr, h.owners, holders))
	}
}

func (h *lineHolders) asMap() map[noc.NodeID]cache.State {
	out := make(map[noc.NodeID]cache.State, len(h.held))
	for _, x := range h.held {
		out[x.node] = x.st
	}
	return out
}

// Holders returns a copy of the stable holders of a line, for tests.
func (c *Checker) Holders(addr mem.LineAddr) map[noc.NodeID]cache.State {
	if h := c.lines[addr]; h != nil {
		return h.asMap()
	}
	return make(map[noc.NodeID]cache.State)
}

// Ok reports whether no violation has been observed.
func (c *Checker) Ok() bool { return len(c.Violations) == 0 }
