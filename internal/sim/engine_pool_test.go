package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestEngineRunUntilStopRegression is the regression test for the time-travel
// bug: RunUntil used to fast-forward now to the deadline even when Stop ended
// the run early, so events still queued before the deadline later executed
// with when < now and Step moved simulated time backwards.
func TestEngineRunUntilStopRegression(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(10, func() { fired = append(fired, e.Now()) })
	e.Schedule(20, func() {
		fired = append(fired, e.Now())
		e.Stop()
	})
	e.Schedule(30, func() { fired = append(fired, e.Now()) })

	n := e.RunUntil(100)
	if n != 2 {
		t.Fatalf("RunUntil executed %d events before Stop, want 2", n)
	}
	if e.Now() != 20 {
		t.Fatalf("after Stop mid-run Now() = %v, want 20 (not fast-forwarded to the deadline)", e.Now())
	}

	// The remaining event must run at its own time with time moving forward.
	e.Run()
	if len(fired) != 3 || fired[2] != 30 {
		t.Fatalf("fired = %v, want final event at 30", fired)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("simulated time moved backwards: %v", fired)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("final Now() = %v, want 30", e.Now())
	}
}

// TestEngineRunUntilStopThenResume checks that a second RunUntil after an
// early Stop picks up the events the first call left behind.
func TestEngineRunUntilStopThenResume(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(5, func() {
		count++
		e.Stop()
	})
	e.Schedule(15, func() { count++ })
	if n := e.RunUntil(50); n != 1 {
		t.Fatalf("first RunUntil executed %d, want 1", n)
	}
	if n := e.RunUntil(50); n != 1 {
		t.Fatalf("second RunUntil executed %d, want 1", n)
	}
	if count != 2 || e.Now() != 50 {
		t.Fatalf("count = %d, Now() = %v; want 2 events and fast-forward to 50", count, e.Now())
	}
}

// refEngine is a deliberately naive event queue — a flat slice scanned for
// the (time, seq) minimum on every step — used as the specification the
// heap-queue/pooled engine must match, including RunUntil/Stop semantics
// and the (time, seq) trace hash.
type refEngine struct {
	now     Time
	seq     uint64
	evs     []*refEvent
	stopped bool
	hash    uint64
}

type refEvent struct {
	when     Time
	seq      uint64
	fn       func()
	canceled bool
}

func (r *refEngine) schedule(d Duration, fn func()) *refEvent {
	ev := &refEvent{when: r.now.Add(d), seq: r.seq, fn: fn}
	r.seq++
	r.evs = append(r.evs, ev)
	return ev
}

func (r *refEngine) step() bool {
	best := -1
	for i, ev := range r.evs {
		if ev.canceled {
			continue
		}
		if best < 0 || ev.when < r.evs[best].when ||
			(ev.when == r.evs[best].when && ev.seq < r.evs[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return false
	}
	ev := r.evs[best]
	r.evs = append(r.evs[:best], r.evs[best+1:]...)
	r.now = ev.when
	r.hash = fnvMix(fnvMix(r.hash, uint64(ev.when)), ev.seq)
	ev.fn()
	return true
}

// peek returns the earliest live event without firing it, or nil.
func (r *refEngine) peek() *refEvent {
	var best *refEvent
	for _, ev := range r.evs {
		if ev.canceled {
			continue
		}
		if best == nil || ev.when < best.when || (ev.when == best.when && ev.seq < best.seq) {
			best = ev
		}
	}
	return best
}

// runUntil mirrors Engine.RunUntil: execute events with times <= deadline,
// fast-forward to the deadline on a normal drain, and stay put when a Stop
// ends the run early.
func (r *refEngine) runUntil(deadline Time) int {
	r.stopped = false
	n := 0
	for !r.stopped {
		next := r.peek()
		if next == nil || next.when > deadline {
			break
		}
		r.step()
		n++
	}
	if !r.stopped && r.now < deadline {
		r.now = deadline
	}
	return n
}

// TestEngineMatchesReferenceModel drives the production engine and the naive
// reference through the same randomized workload — a mix of near-future
// (under 3 ns) and far-future (up to 500 ns) delays, nested scheduling from
// callbacks, and cancellations — and requires the exact same execution order.
func TestEngineMatchesReferenceModel(t *testing.T) {
	// Both runs draw identical schedule/cancel decisions from the same rng
	// as long as execution order matches; any divergence desynchronizes the
	// streams and fails the comparison, which is exactly what we want.
	type driver struct {
		rng    *rand.Rand
		order  []int
		nextID int
	}
	// randomDelay mixes near-future delays under 3 ns with far-future ones
	// up to 500 ns, so the heap holds both crowded and spread-out keys.
	randomDelay := func(rng *rand.Rand) Duration {
		if rng.Intn(4) == 0 {
			return Duration(rng.Intn(500_000)) // far future: sparse keys
		}
		return Duration(rng.Intn(3_000)) // near future: crowded keys
	}

	// Handles are dropped (nilled) when their event fires or is canceled, per
	// the pooled-handle contract documented on sim.Event: a retained stale
	// handle may alias a recycled event.
	runReal := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		d := &driver{rng: rng}
		var handles []*Event
		var fire func(id int) func()
		fire = func(id int) func() {
			return func() {
				handles[id] = nil
				d.order = append(d.order, id)
				for k := rng.Intn(3); k > 0 && d.nextID < 400; k-- {
					id := d.nextID
					d.nextID++
					handles = append(handles, e.Schedule(randomDelay(rng), fire(id)))
				}
				if len(handles) > 0 && rng.Intn(4) == 0 {
					i := rng.Intn(len(handles))
					if handles[i] != nil {
						e.Cancel(handles[i])
						handles[i] = nil
					}
				}
			}
		}
		for i := 0; i < 50; i++ {
			id := d.nextID
			d.nextID++
			handles = append(handles, e.Schedule(randomDelay(rng), fire(id)))
		}
		e.Run()
		return d.order
	}
	runRef := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		r := &refEngine{}
		d := &driver{rng: rng}
		var handles []*refEvent
		var fire func(id int) func()
		fire = func(id int) func() {
			return func() {
				handles[id] = nil
				d.order = append(d.order, id)
				for k := rng.Intn(3); k > 0 && d.nextID < 400; k-- {
					id := d.nextID
					d.nextID++
					handles = append(handles, r.schedule(randomDelay(rng), fire(id)))
				}
				if len(handles) > 0 && rng.Intn(4) == 0 {
					i := rng.Intn(len(handles))
					if handles[i] != nil {
						handles[i].canceled = true
						handles[i] = nil
					}
				}
			}
		}
		for i := 0; i < 50; i++ {
			id := d.nextID
			d.nextID++
			handles = append(handles, r.schedule(randomDelay(rng), fire(id)))
		}
		for r.step() {
		}
		return d.order
	}

	f := func(seed int64) bool {
		a := runReal(seed)
		b := runRef(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return len(a) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func nopArg(any) {}

// TestEngineAtArg checks that the allocation-free scheduling variant passes
// its argument through and interleaves with closure events in (time, seq)
// order.
func TestEngineAtArg(t *testing.T) {
	e := NewEngine()
	var got []any
	record := func(a any) { got = append(got, a) }
	e.AtArg(20, record, "b")
	e.At(10, func() { got = append(got, "a") })
	e.ScheduleArg(20, record, "c") // same time as "b": later seq, runs after
	e.Run()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("got = %v, want [a b c]", got)
	}
}

// TestEngineSteadyStateAllocationFree proves the pool works: once warmed up,
// a schedule/fire cycle performs no heap allocation.
func TestEngineSteadyStateAllocationFree(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 1000; i++ {
		e.ScheduleArg(Duration(i%100), nopArg, nil)
	}
	e.Run()
	allocs := testing.AllocsPerRun(200, func() {
		e.ScheduleArg(50, nopArg, nil)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+fire allocated %v objects/op, want 0", allocs)
	}
}

// delayShare is one recorded schedule delay and how many times a series
// scheduled it.
type delayShare struct {
	d     Duration
	count int
}

// engineQueueMixes are schedule-delay mixes recorded from four paper series
// at seed 42. Each lists the series' eight most common delays with how often
// each was scheduled (together 94.6-99.5% of its schedules); depth is its
// mean number of pending events when an event fires. Near-future delays
// dominate every mix by count. What differs is what the queue holds: the
// CCSVM series and APSP/opencl keep a shallow queue, while matmul/opencl's
// 2.2 us kernel delays leave nearly all of its ~970 pending events far in
// the future, under the few near-future ones at the top.
var engineQueueMixes = []struct {
	name   string
	depth  int
	delays []delayShare
}{
	{"matmul_ccsvm_n32", 10, []delayShare{
		{1667, 67016}, {208, 64613}, {2333, 2464}, {200, 2014},
		{7667, 1995}, {106688, 1024}, {3450, 980}, {416, 404}}},
	{"sparse_ccsvm_n48_d0.06", 31, []delayShare{
		{1667, 54942}, {2333, 54348}, {208, 48746}, {106688, 42036},
		{200, 40188}, {7667, 33553}, {3450, 15688}, {690, 5051}}},
	{"apsp_opencl_n20", 20, []delayShare{
		{2000, 17056}, {52, 16557}, {3334, 8000}, {1000, 1525},
		{104, 205}, {156, 154}, {208, 111}, {72000, 80}}},
	{"matmul_opencl_n32", 972, []delayShare{
		{2000, 66560}, {52, 65541}, {2195448, 30720}, {1000, 5760},
		{2197500, 3072}, {106688, 1024}, {72000, 385}, {4600, 384}}},
}

// drawDelay picks one of shares with probability proportional to weight(s).
func drawDelay(rng *rand.Rand, shares []delayShare, weight func(delayShare) int64) delayShare {
	var total int64
	for _, s := range shares {
		total += weight(s)
	}
	r := rng.Int63n(total)
	for _, s := range shares {
		if r < weight(s) {
			return s
		}
		r -= weight(s)
	}
	panic("unreachable")
}

// BenchmarkEngineQueue times one schedule+dispatch on each recorded mix. The
// queue starts in the steady state the mix implies at its depth: by Little's
// law a delay's share of the pending events is its count times its length,
// and each pending event has a uniform part of its delay left. Every
// dispatched event is then replaced by one whose delay is drawn by count.
// On matmul/opencl about 925 of the 972 pending events then lie over
// 100 ns ahead and fewer than ten within 10 ns.
func BenchmarkEngineQueue(b *testing.B) {
	byCount := func(s delayShare) int64 { return int64(s.count) }
	byLength := func(s delayShare) int64 { return int64(s.count) * int64(s.d) }
	for _, mix := range engineQueueMixes {
		rng := rand.New(rand.NewSource(1))
		delays := make([]Duration, 4096)
		for i := range delays {
			delays[i] = drawDelay(rng, mix.delays, byCount).d
		}
		b.Run(fmt.Sprintf("%s/depth=%d", mix.name, mix.depth), func(b *testing.B) {
			e := NewEngine()
			rng := rand.New(rand.NewSource(2))
			for i := 0; i < mix.depth; i++ {
				left := 1 + rng.Int63n(int64(drawDelay(rng, mix.delays, byLength).d))
				e.ScheduleArg(Duration(left), nopArg, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.ScheduleArg(delays[i%len(delays)], nopArg, nil)
				e.Step()
			}
		})
	}
}

// TestEventSize pins the Event at 48 bytes, under one cache line.
func TestEventSize(t *testing.T) {
	if s := unsafe.Sizeof(Event{}); s != 48 {
		t.Fatalf("sizeof(Event) = %d, want 48", s)
	}
}

// TestEventPoolRecyclesObjects checks fired events are reused rather than
// reallocated, and that a stale handle to a fired (pooled, not yet reused)
// event cannot cancel anything.
func TestEventPoolRecyclesObjects(t *testing.T) {
	e := NewEngine()
	first := e.Schedule(10, func() {})
	e.Run()
	// first has fired and sits on the free list; canceling it is a no-op.
	e.Cancel(first)
	second := e.Schedule(5, func() {})
	if first != second {
		t.Fatal("fired event was not recycled from the free list")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1 (stale Cancel must not affect the recycled event)", e.Pending())
	}
	e.Run()
	if e.Executed() != 2 {
		t.Fatalf("Executed() = %d, want 2", e.Executed())
	}
}
