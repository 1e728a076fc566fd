package noc

import (
	"fmt"

	"ccsvm/internal/sim"
	"ccsvm/internal/stats"
)

// CrossbarConfig describes a fully connected interconnect with a fixed
// latency and an aggregate bandwidth. The APU baseline machine uses one
// crossbar between its CPU cores and another full connection between cores,
// GPU and the memory controllers, matching the Table 2 description of the
// Llano part.
type CrossbarConfig struct {
	// Latency is the fixed transfer latency for any message.
	Latency sim.Duration
	// Bandwidth is the aggregate bandwidth in bytes per second; zero means
	// unlimited.
	Bandwidth float64
}

// Crossbar is a contention-light interconnect: every message pays the fixed
// latency plus serialization against one shared bandwidth pool.
type Crossbar struct {
	cfg       CrossbarConfig
	engine    *sim.Engine
	receivers map[NodeID]Receiver
	freeAt    sim.Time

	// pool recycles delivered messages; deliverFn is bound once so delivery
	// scheduling allocates no closure.
	pool      msgPool
	deliverFn func(any)

	msgs  *stats.Counter
	bytes *stats.Counter
}

// NewCrossbar builds a crossbar.
func NewCrossbar(engine *sim.Engine, cfg CrossbarConfig, reg *stats.Registry, name string) *Crossbar {
	x := &Crossbar{
		cfg:       cfg,
		engine:    engine,
		receivers: make(map[NodeID]Receiver),
		msgs:      reg.Counter(name + ".messages"),
		bytes:     reg.Counter(name + ".bytes"),
	}
	x.deliverFn = func(a any) { x.deliver(a.(*Message)) }
	return x
}

// NewMessage implements Network.
//
//ccsvm:pooled get
func (x *Crossbar) NewMessage() *Message { return x.pool.get() }

// Attach implements Network.
func (x *Crossbar) Attach(id NodeID, r Receiver) {
	if _, ok := x.receivers[id]; ok {
		panic(fmt.Sprintf("noc: crossbar node %d attached twice", id))
	}
	x.receivers[id] = r
}

// Send implements Network.
//
//ccsvm:hotpath
func (x *Crossbar) Send(msg *Message) {
	x.msgs.Inc()
	x.bytes.Add(uint64(msg.SizeBytes))
	now := x.engine.Now()
	start := now
	if x.cfg.Bandwidth > 0 {
		if x.freeAt > start {
			start = x.freeAt
		}
		ser := sim.Duration(float64(msg.SizeBytes)/x.cfg.Bandwidth*float64(sim.Second) + 0.5)
		x.freeAt = start.Add(ser)
		start = x.freeAt
	}
	arrive := start.Add(x.cfg.Latency)
	x.engine.AtArg(arrive, x.deliverFn, msg)
}

//
//ccsvm:hotpath
func (x *Crossbar) deliver(msg *Message) {
	r, ok := x.receivers[msg.Dst]
	if !ok {
		panic(fmt.Sprintf("noc: crossbar message to unattached node %d", msg.Dst))
	}
	r.Receive(msg)
	x.pool.put(msg)
}

var _ Network = (*Crossbar)(nil)
