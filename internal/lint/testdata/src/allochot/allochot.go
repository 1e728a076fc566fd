// Package allochot exercises the allocfree analyzer: every heap-allocating
// construct inside a //ccsvm:hotpath function is flagged.
package allochot

import "fmt"

// Point is a plain value type.
type Point struct {
	X, Y int
}

// box is an interface-typed package variable; storing a non-pointer value
// into it boxes the value.
var box any

// Consume keeps results alive so the fixtures compile.
func Consume(args ...any) {}

// Hot is the annotated hot path with one of each allocating construct.
//
//ccsvm:hotpath
func Hot(n int, name string, buf []byte, ch chan any) {
	s := make([]int, n)                  // want "make allocates"
	p := new(int)                        // want "new allocates"
	buf = append(buf, 1)                 // want "append may grow its backing array"
	f := func() int { return n }         // want "capturing closure allocates on the hot path \\(captures n\\)"
	xs := []int{1, 2, 3}                 // want "slice literal allocates its backing array"
	m := map[int]int{1: 2}               // want "map literal allocates"
	pt := &Point{X: 1, Y: 2}             // want "address-taken composite literal escapes"
	msg := name + "!"                    // want "string concatenation allocates"
	bs := []byte(name)                   // want "conversion between string and byte/rune slice"
	box = n                              // want "interface boxing of n allocates"
	ch <- n                              // want "interface boxing of n allocates"
	Consume(s, p, f, xs, m, pt, msg, bs) // want "interface boxing of s allocates" "interface boxing of xs allocates" "interface boxing of msg allocates" "interface boxing of bs allocates"
	_ = fmt.Sprintf("%d", 1)             // want "fmt.Sprintf reflects and allocates"
}

// HotReturn boxes its concrete result into an interface return value.
//
//ccsvm:hotpath
func HotReturn(p Point) any {
	return p // want "interface boxing of p allocates"
}

// HotVar boxes through an explicitly typed var declaration.
//
//ccsvm:hotpath
func HotVar(n int) {
	var v any = n // want "interface boxing of n allocates"
	_ = v
}

// Ctrl is a controller whose methods schedule callbacks.
type Ctrl struct {
	n int
}

// schedule stands in for the engine's At/Schedule family; allocfree flags a
// capturing closure or method value wherever it appears, not only at
// schedule sites.
func schedule(fn func()) {}

// use consumes a value inside the scheduled closures.
func use(int) {}

// tick is the method the method-value cases below pass around.
func (c *Ctrl) tick() {}

// HotSchedule passes a closure capturing a parameter.
//
//ccsvm:hotpath
func HotSchedule(n int) {
	schedule(func() { // want "capturing closure"
		use(n)
	})
}

// Recv captures its receiver in a scheduled callback.
//
//ccsvm:hotpath
func (c *Ctrl) Recv() {
	schedule(func() { // want "captures c"
		c.n++
	})
}

// HotMethodValue passes bound method values, each a closure over its
// receiver: as an argument, through a variable, parenthesized, and from an
// interface.
//
//ccsvm:hotpath
func (c *Ctrl) HotMethodValue(s fmt.Stringer) {
	schedule(c.tick)   // want "method value c.tick allocates a closure on the hot path"
	f := c.Recv        // want "method value c.Recv allocates a closure"
	schedule((c.tick)) // want "method value c.tick allocates a closure"
	g := s.String      // want "method value s.String allocates a closure"
	_, _ = f, g
}

// Cold performs the same allocations without the annotation; nothing is
// flagged.
func Cold(n int, name string, c *Ctrl) ([]int, string) {
	schedule(func() { use(n) })
	schedule(c.tick)
	s := make([]int, n)
	return append(s, 1), name + "!"
}
