// Package allocclean stays on the right side of the allocfree contract:
// pointer-shaped values cross interface boundaries, amortized growth is
// annotated //ccsvm:allocok, and crash paths may allocate freely.
package allocclean

// Item is the pooled per-event payload.
type Item struct {
	Seq int
}

// Queue is a reusable ring with a bound handler, the hot-path idiom the
// engine uses: the callback is bound once, per-event state rides in the
// pointer argument.
type Queue struct {
	buf     []*Item
	scratch []byte
	handler func(any)
}

// Push runs on the hot path without steady-state allocation.
//
//ccsvm:hotpath
func Push(q *Queue, v *Item) {
	q.buf = append(q.buf, v) //ccsvm:allocok // grows to a high-water mark, then reuses
	q.handler(v)             // *Item is pointer-shaped: no boxing
}

// Pop reuses the backing array and hands the item to a bound closure.
//
//ccsvm:hotpath
func Pop(q *Queue) *Item {
	if len(q.buf) == 0 {
		return nil
	}
	v := q.buf[len(q.buf)-1]
	q.buf = q.buf[:len(q.buf)-1]
	return v
}

// Reset is hot but its refill is a reviewed amortized allocation, annotated
// on the previous line.
//
//ccsvm:hotpath
func Reset(q *Queue, n int) {
	if cap(q.scratch) < n {
		//ccsvm:allocok // one-time growth to the largest request seen
		q.scratch = make([]byte, n)
	}
	q.scratch = q.scratch[:n]
}

// Check panics on a corrupt queue; the crash path may allocate.
//
//ccsvm:hotpath
func Check(q *Queue, name string) {
	if q.buf == nil {
		panic("allocclean: uninitialized queue " + name)
	}
	f := func(x int) int { return x + 1 } // captures nothing: a static value
	_ = f(1)
}

// Constants fold at compile time; no allocation.
//
//ccsvm:hotpath
func Greeting() string {
	const hello = "hello, " + "world"
	return hello
}

// tick is a method the hot paths below call and schedule.
func (q *Queue) tick() {}

// schedule stands in for the engine's At/Schedule family.
func schedule(fn func()) {}

// scheduleArg stands in for the engine's AtArg/ScheduleArg.
func scheduleArg(fn func(any), arg any) {}

// Drive calls methods directly, schedules a named function and a prebound
// callback, and takes a method expression: none allocates.
//
//ccsvm:hotpath
func Drive(q *Queue) {
	q.tick()
	(q.tick)()
	defer q.tick()
	schedule(Tick)
	scheduleArg(q.handler, q)
	f := (*Queue).tick
	f(q)
}

// Tick is a plain function; its value is static.
func Tick() {}

// Arm binds a method value once per arming, a reviewed allocation.
//
//ccsvm:hotpath
func Arm(q *Queue) {
	schedule(q.tick) //ccsvm:allocok // armed once per run, not per event
}
