package coherence

import (
	"math/bits"

	"ccsvm/internal/noc"
)

// sharerSet is the full-map sharer vector of one directory entry: one bit per
// L1 node. Nodes 0–63 live in an inline word, so the Table 2 chip (18 nodes)
// never touches the heap; larger chips grow overflow words once, to their
// highest node ID, and keep them. Iteration is ascending by node ID, which is
// the fixed order invalidation rounds go out in.
type sharerSet struct {
	lo uint64
	// hi[i] holds nodes 64*(i+1) .. 64*(i+1)+63.
	hi []uint64
}

// word returns the word holding node n and n's bit in it, growing the
// overflow words when grow is set; it returns nil when n lies beyond the
// current words and grow is clear.
//
//ccsvm:hotpath
func (s *sharerSet) word(n noc.NodeID, grow bool) (*uint64, uint64) {
	bit := uint64(1) << (uint(n) % 64)
	if n < 64 {
		return &s.lo, bit
	}
	i := int(n)/64 - 1
	if i >= len(s.hi) {
		if !grow {
			return nil, 0
		}
		for len(s.hi) <= i {
			s.hi = append(s.hi, 0) //ccsvm:allocok // grows once, to the chip's highest node ID
		}
	}
	return &s.hi[i], bit
}

// add marks node n as a sharer.
func (s *sharerSet) add(n noc.NodeID) {
	w, bit := s.word(n, true)
	*w |= bit
}

// has reports whether node n is a sharer.
func (s *sharerSet) has(n noc.NodeID) bool {
	w, bit := s.word(n, false)
	return w != nil && *w&bit != 0
}

// clear removes every sharer, keeping the overflow words for reuse.
func (s *sharerSet) clear() {
	s.lo = 0
	clear(s.hi)
}

// empty reports whether the set has no sharers.
func (s *sharerSet) empty() bool {
	if s.lo != 0 {
		return false
	}
	for _, w := range s.hi {
		if w != 0 {
			return false
		}
	}
	return true
}

// appendTo appends every sharer except the given node to dst in ascending
// node order and returns the extended slice; except < 0 excludes nobody.
//
//ccsvm:hotpath
func (s *sharerSet) appendTo(dst []noc.NodeID, except noc.NodeID) []noc.NodeID {
	dst = appendBits(dst, s.lo, 0, except)
	for i, w := range s.hi {
		dst = appendBits(dst, w, noc.NodeID(64*(i+1)), except)
	}
	return dst
}

// appendBits appends base+k for every set bit k of w, ascending, skipping
// except.
//
//ccsvm:hotpath
func appendBits(dst []noc.NodeID, w uint64, base, except noc.NodeID) []noc.NodeID {
	for w != 0 {
		n := base + noc.NodeID(bits.TrailingZeros64(w))
		w &= w - 1
		if n != except {
			dst = append(dst, n) //ccsvm:allocok // scratch list grows to its high-water mark
		}
	}
	return dst
}
