// Package stats provides the counters and report formatting used by every
// component model. Components register named counters in a Registry; the
// experiment harness snapshots registries to build the tables that
// cmd/paper-figs prints.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	name  string
	value uint64
}

// Name reports the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.value }

// Inc adds one to the counter.
func (c *Counter) Inc() { c.value++ }

// Add adds n to the counter.
func (c *Counter) Add(n uint64) { c.value += n }

// Gauge is a value that can move in both directions (e.g. occupancy).
type Gauge struct {
	name  string
	value int64
	max   int64
	// set records that the gauge was ever assigned: the max is tracked only
	// from the first Set/Add, so a gauge that only ever goes negative
	// reports its true (negative) max instead of a spurious zero.
	set bool
}

// Name reports the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// Value reports the current value.
func (g *Gauge) Value() int64 { return g.value }

// Max reports the largest value observed since the first Set/Add, or zero
// for a gauge that was never assigned.
func (g *Gauge) Max() int64 { return g.max }

// Set assigns the gauge.
func (g *Gauge) Set(v int64) {
	g.value = v
	if !g.set || v > g.max {
		g.max = v
		g.set = true
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.Set(g.value + delta) }

// Registry is a named collection of counters and gauges. Registries nest by
// name prefix convention ("l1.0.hits", "dram.reads", ...).
type Registry struct {
	name     string
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry creates an empty registry with the given name.
func NewRegistry(name string) *Registry {
	return &Registry{
		name:     name,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

// Name reports the registry name.
func (r *Registry) Name() string { return r.name }

// Counter returns the counter with the given name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge with the given name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// Lookup returns the value of a counter if it exists.
func (r *Registry) Lookup(name string) (uint64, bool) {
	c, ok := r.counters[name]
	if !ok {
		return 0, false
	}
	return c.value, true
}

// Sum returns the total of all counters whose names begin with prefix.
func (r *Registry) Sum(prefix string) uint64 {
	var total uint64
	for name, c := range r.counters {
		if strings.HasPrefix(name, prefix) {
			total += c.value
		}
	}
	return total
}

// SumMatch returns the total of all counters whose names begin with prefix
// AND end with suffix — the shape of per-component counters ("cpu0.l1.hits",
// "mttop3.l1.hits"), which a machine-level metric sums across components.
// Either string may be empty to match everything on that side.
func (r *Registry) SumMatch(prefix, suffix string) uint64 {
	var total uint64
	for name, c := range r.counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			total += c.value
		}
	}
	return total
}

// AddRate records hits/(hits+misses) under key when there was any traffic
// at all; untouched structures report no rate rather than a misleading
// zero. The machines' Metrics() reductions use it to derive hit rates from
// counter pairs.
func AddRate(out map[string]float64, key string, hits, misses uint64) {
	if total := hits + misses; total > 0 {
		out[key] = float64(hits) / float64(total)
	}
}

// Snapshot returns all counter values, sorted by name.
func (r *Registry) Snapshot() []NamedValue {
	out := make([]NamedValue, 0, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		out = append(out, NamedValue{Name: name, Value: float64(c.value)})
	}
	for name, g := range r.gauges {
		out = append(out, NamedValue{Name: name + ".max", Value: float64(g.max)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Reset zeroes every counter and gauge, keeping registrations.
func (r *Registry) Reset() {
	for _, c := range r.counters {
		c.value = 0
	}
	for _, g := range r.gauges {
		g.value = 0
		g.max = 0
		g.set = false
	}
}

// NamedValue is one row of a registry snapshot.
type NamedValue struct {
	Name  string
	Value float64
}

// Format renders a snapshot as an aligned text block.
func Format(values []NamedValue) string {
	var b strings.Builder
	width := 0
	for _, v := range values {
		if len(v.Name) > width {
			width = len(v.Name)
		}
	}
	for _, v := range values {
		fmt.Fprintf(&b, "%-*s %v\n", width+2, v.Name, formatNumber(v.Value))
	}
	return b.String()
}

func formatNumber(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}
