package coherence

import (
	"math/rand"
	"slices"
	"testing"

	"ccsvm/internal/noc"
)

// TestSharerSetAcrossWordBoundary exercises the sharer vector with node IDs
// in the inline word and in overflow words.
func TestSharerSetAcrossWordBoundary(t *testing.T) {
	var s sharerSet
	if !s.empty() || s.has(0) || s.has(200) {
		t.Fatal("zero set is not empty")
	}
	nodes := []noc.NodeID{130, 3, 64, 63, 0, 127, 65, 200}
	for _, n := range nodes {
		s.add(n)
	}
	s.add(64) // adding twice is idempotent
	want := slices.Clone(nodes)
	slices.Sort(want)
	if got := s.appendTo(nil, -1); !slices.Equal(got, want) {
		t.Fatalf("appendTo = %v, want ascending %v", got, want)
	}
	for _, except := range []noc.NodeID{0, 63, 64, 200, 5} {
		wantEx := slices.DeleteFunc(slices.Clone(want), func(n noc.NodeID) bool { return n == except })
		if got := s.appendTo(nil, except); !slices.Equal(got, wantEx) {
			t.Fatalf("appendTo except %d = %v, want %v", except, got, wantEx)
		}
	}
	for n := noc.NodeID(0); n < 260; n++ {
		if s.has(n) != slices.Contains(nodes, n) {
			t.Fatalf("has(%d) = %v", n, s.has(n))
		}
	}
	// appendTo extends, and reuses, the caller's scratch list.
	scratch := make([]noc.NodeID, 0, 16)
	if got := s.appendTo(scratch[:0], 3); &got[0] != &scratch[:1][0] {
		t.Fatal("appendTo reallocated a scratch list with room to spare")
	}

	words := len(s.hi)
	s.clear()
	if !s.empty() || s.has(130) || s.has(3) || len(s.appendTo(nil, -1)) != 0 {
		t.Fatal("clear left sharers behind")
	}
	if len(s.hi) != words {
		t.Fatalf("clear dropped the overflow words (%d -> %d)", words, len(s.hi))
	}
	s.add(190)
	if s.empty() || !s.has(190) {
		t.Fatal("overflow-only set reads as empty")
	}
}

// TestSharerSetMatchesMapModel checks random add/clear sequences against a
// map model, with the iteration order of the sorted map keys.
func TestSharerSetMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s sharerSet
	model := map[noc.NodeID]bool{}
	for i := 0; i < 2000; i++ {
		if rng.Intn(50) == 0 {
			s.clear()
			clear(model)
		}
		n := noc.NodeID(rng.Intn(150))
		s.add(n)
		model[n] = true
		except := noc.NodeID(rng.Intn(150))
		var want []noc.NodeID
		for m := range model {
			if m != except {
				want = append(want, m)
			}
		}
		slices.Sort(want)
		if got := s.appendTo(nil, except); !slices.Equal(got, want) {
			t.Fatalf("step %d: appendTo except %d = %v, want %v", i, except, got, want)
		}
	}
}
