package coherence

import (
	"fmt"
	"math/rand"
	"testing"

	"ccsvm/internal/mem"
	"ccsvm/internal/sim"
)

// blankMSHR reports what, if anything, a released MSHR still carries from its
// last transaction: a header field, or an entry of the secondary or deferred
// lists it keeps the capacity of.
func blankMSHR(ms *mshr) string {
	if ms.addr != 0 || ms.wantWrite || ms.fromOwned || ms.haveData ||
		ms.acksNeeded != 0 || ms.acksReceived != 0 || ms.primary.done != nil ||
		ms.primary.req != (mem.Request{}) || len(ms.secondary) != 0 || len(ms.deferred) != 0 {
		return fmt.Sprintf("fields %+v", *ms)
	}
	for _, p := range ms.secondary[:cap(ms.secondary)] {
		if p.done != nil || p.req != (mem.Request{}) {
			return "a secondary access"
		}
	}
	for _, f := range ms.deferred[:cap(ms.deferred)] {
		if f != nil {
			return "deferred forward " + f.String()
		}
	}
	return ""
}

// TestMSHRPoolRecycles checks the pool's contract directly: a released MSHR
// is blank but keeps its list capacity, and the pool hands it out again
// initialized like a new one.
func TestMSHRPoolRecycles(t *testing.T) {
	var p mshrPool
	ms := p.get(7, true, true, pendingAccess{done: nop})
	ms.acksNeeded, ms.acksReceived, ms.haveData = 2, 1, true
	ms.secondary = append(ms.secondary, pendingAccess{req: mem.Request{Type: mem.Write}, done: nop})
	ms.deferred = append(ms.deferred, &Msg{Type: MsgFwdGetS})
	p.put(ms)
	if what := blankMSHR(ms); what != "" {
		t.Fatalf("released MSHR carries %s", what)
	}
	if cap(ms.secondary) == 0 || cap(ms.deferred) == 0 {
		t.Fatal("released MSHR dropped its list capacity")
	}
	again := p.get(9, false, false, pendingAccess{})
	if again != ms {
		t.Fatal("pool did not recycle the released MSHR")
	}
	if again.addr != 9 || again.wantWrite || again.fromOwned || again.acksNeeded != -1 {
		t.Fatalf("recycled MSHR not initialized like a new one: %+v", *again)
	}
}

// TestRecycledMSHRCarriesNothing drives heavily contended traffic — owner
// upgrades (fromOwned), forwards deferred behind in-flight grants, coalesced
// requests — and checks after every event that each MSHR on a controller's
// free list is blank.
func TestRecycledMSHRCarriesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := newTestSystem(t, 6, 2)
	lines := []mem.PAddr{0x100000, 0x100040, 0x100080}
	for c := range s.l1s {
		for i := 0; i < 200; i++ {
			typ := mem.Read
			if rng.Intn(2) == 0 {
				typ = mem.Write
			}
			addr := lines[rng.Intn(len(lines))]
			s.engine.At(sim.Time(rng.Intn(400_000)), func() {
				s.l1s[c].Access(mem.Request{Type: typ, Addr: addr, Size: 8}, nop)
			})
		}
	}
	// An uncontended owner upgrade on a fourth line completes with fromOwned
	// still set (in the contended traffic a forward usually takes the line
	// first, which clears it).
	for i, a := range []struct {
		core int
		typ  mem.AccessType
	}{{0, mem.Write}, {1, mem.Read}, {0, mem.Write}} {
		s.engine.At(sim.Time(i)*100_000, func() {
			s.l1s[a.core].Access(mem.Request{Type: a.typ, Addr: 0x1000c0, Size: 8}, nop)
		})
	}
	var sawFromOwned, sawDeferred, sawSecondary bool
	recycled := 0
	for s.engine.Step() {
		for i, l1 := range s.l1s {
			for _, ms := range l1.mshrs {
				sawFromOwned = sawFromOwned || ms.fromOwned
				sawDeferred = sawDeferred || len(ms.deferred) > 0
				sawSecondary = sawSecondary || len(ms.secondary) > 0
			}
			for _, ms := range l1.mshrPool.free {
				recycled++
				if what := blankMSHR(ms); what != "" {
					t.Fatalf("l1.%d at %v: recycled MSHR carries %s", i, s.engine.Now(), what)
				}
			}
		}
	}
	s.quiesce(t)
	if !sawFromOwned || !sawDeferred || !sawSecondary || recycled == 0 {
		t.Fatalf("traffic missed a case: fromOwned %v, deferred %v, secondary %v, recycled %d",
			sawFromOwned, sawDeferred, sawSecondary, recycled)
	}
}
