package mttop

// IdleContexts reports how many built contexts sit on the free list.
func (c *Core) IdleContexts() int {
	n := 0
	for h := c.free; h != nil; h = h.nextFree {
		n++
	}
	return n
}
