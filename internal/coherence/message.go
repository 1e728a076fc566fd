// Package coherence implements the MOESI directory cache-coherence protocol
// of the CCSVM chip: the per-core L1 cache controllers and the banked
// L2/directory controller, communicating over the on-chip network. The
// protocol follows Section 3.2.2 of the paper: an unoptimized full-map MOESI
// directory embedded with the shared, inclusive L2, treating CPU and MTTOP
// cores identically, and maintaining the single-writer/multiple-reader (SWMR)
// invariant.
//
//ccsvm:deterministic
package coherence

import (
	"fmt"

	"ccsvm/internal/cache"
	"ccsvm/internal/mem"
	"ccsvm/internal/noc"
)

// MsgType enumerates the protocol messages.
type MsgType uint8

const (
	// Requests from an L1 to a directory bank.

	// MsgGetS requests read permission.
	MsgGetS MsgType = iota
	// MsgGetM requests write permission.
	MsgGetM
	// MsgPutM writes back a Modified line being evicted.
	MsgPutM
	// MsgPutO writes back an Owned line being evicted.
	MsgPutO
	// MsgPutE notifies the directory that a clean Exclusive line was evicted.
	MsgPutE

	// Forwards from a directory bank to an L1.

	// MsgFwdGetS asks the owner to supply data to a reading requestor.
	MsgFwdGetS
	// MsgFwdGetM asks the owner to supply data and ownership to a writing
	// requestor.
	MsgFwdGetM
	// MsgInv asks a sharer to invalidate and acknowledge to the requestor.
	MsgInv

	// Responses.

	// MsgData carries a line with read permission (to the requestor).
	MsgData
	// MsgDataExcl carries a line with write (or exclusive-clean) permission
	// and the number of invalidation acks the requestor must collect.
	MsgDataExcl
	// MsgAckCount tells an upgrading requestor (already holding data in S)
	// how many invalidation acks to collect; it carries no data.
	MsgAckCount
	// MsgInvAck acknowledges an invalidation, sent by the sharer directly to
	// the requestor.
	MsgInvAck
	// MsgFwdDone tells the directory that the owner has handled a forward;
	// it reports the state the former owner kept so the directory can update
	// its sharer/owner bookkeeping, and carries a data copy when the line was
	// dirty so the inclusive L2 stays up to date.
	MsgFwdDone
	// MsgPutAck acknowledges an eviction writeback.
	MsgPutAck
	// MsgPutAckStale acknowledges an eviction writeback that raced with a
	// forward and no longer corresponds to ownership.
	MsgPutAckStale
)

// String names the message type.
func (t MsgType) String() string {
	names := [...]string{
		"GetS", "GetM", "PutM", "PutO", "PutE",
		"FwdGetS", "FwdGetM", "Inv",
		"Data", "DataExcl", "AckCount", "InvAck", "FwdDone", "PutAck", "PutAckStale",
	}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Message sizes in bytes for link serialization: a small header for control
// messages, header plus a 64-byte line for data-carrying messages.
const (
	CtrlMsgBytes = 16
	DataMsgBytes = 16 + mem.LineSize
)

// Msg is the protocol-level payload carried inside a noc.Message.
type Msg struct {
	// Type is the protocol message type.
	Type MsgType
	// Addr is the cache line the message concerns.
	Addr mem.LineAddr
	// Requestor is the node that started the transaction. For forwards and
	// invalidations it tells the receiver where to send data or acks.
	Requestor noc.NodeID
	// AckCount is the number of invalidation acks the requestor must collect
	// (MsgDataExcl, MsgAckCount, MsgFwdGetM).
	AckCount int
	// OwnerKept reports, on MsgFwdDone, the stable state the previous owner
	// retained: cache.Owned, cache.Shared or cache.Invalid.
	OwnerKept cache.State
	// Dirty reports, on MsgFwdDone and Put messages, whether the line carried
	// is newer than the L2/memory copy.
	Dirty bool
	// pooled marks a message currently sitting on a free list; release uses
	// it to detect double releases.
	pooled bool
	// home is the pool the message was allocated from and returns to.
	home *msgPool
}

// carriesData reports whether the message includes a full cache line.
func (m *Msg) carriesData() bool {
	switch m.Type {
	case MsgData, MsgDataExcl, MsgPutM, MsgPutO:
		return true
	case MsgFwdDone:
		return m.Dirty
	}
	return false
}

// sizeBytes returns the network size of the message.
func (m *Msg) sizeBytes() int {
	if m.carriesData() {
		return DataMsgBytes
	}
	return CtrlMsgBytes
}

// msgPool is a free list of protocol messages. Every controller owns one:
// senders allocate from their own pool, and a released message returns to
// the pool it came from, whichever controller releases it. Each pool
// therefore holds at most its own controller's peak of messages in flight.
// (Releasing into the receiver's pool instead lets the two drift apart: an
// owner answering forwards sends more messages than it receives, so its pool
// would allocate on every forward while the directory's grew without bound.)
// Parallel runs share no mutable state.
//
// Ownership: a *Msg handed to send belongs to the receiver from delivery on.
// The receiver releases it once the message is fully handled; messages it
// retains (a directory's pending/queued requests, an L1's deferred forwards)
// are released when that later processing completes. Code that runs after the
// handler returns (DRAM-fill continuations) must copy the fields it needs
// rather than capture the message.
type msgPool struct {
	free  []*Msg
	stats PoolStats
}

// PoolStats is one controller's message-pool accounting: Gets counts
// allocations from the pool, Puts releases back into it, and DoubleReleases
// releases of a message already sitting on its free list. The quiesce checks
// sum them across a whole system: see SumPoolStats.
type PoolStats struct {
	Gets, Puts, DoubleReleases uint64
}

// InFlight reports allocated-minus-released; at quiesce it must be zero, or
// a handler leaked a message.
func (s PoolStats) InFlight() int64 { return int64(s.Gets) - int64(s.Puts) }

// add accumulates another controller's stats.
func (s PoolStats) add(o PoolStats) PoolStats {
	return PoolStats{s.Gets + o.Gets, s.Puts + o.Puts, s.DoubleReleases + o.DoubleReleases}
}

// SumPoolStats aggregates message-pool accounting across the controllers of
// one memory system. At quiesce the sum must satisfy InFlight() == 0 and
// DoubleReleases == 0; the memtest subsystem and the coherence tests assert
// both.
func SumPoolStats(l1s []*L1Controller, banks []*DirectoryBank) PoolStats {
	var total PoolStats
	for _, c := range l1s {
		total = total.add(c.pool.stats)
	}
	for _, b := range banks {
		total = total.add(b.pool.stats)
	}
	return total
}

// get returns a message with the given header fields and all others zeroed.
//
//ccsvm:pooled get
//ccsvm:hotpath
func (p *msgPool) get(t MsgType, addr mem.LineAddr, req noc.NodeID) *Msg {
	p.stats.Gets++
	var m *Msg
	if n := len(p.free); n > 0 {
		m = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		m = &Msg{home: p} //ccsvm:allocok // pool miss; steady state reuses the free list
	}
	m.Type, m.Addr, m.Requestor = t, addr, req
	m.AckCount = 0
	m.OwnerKept = cache.Invalid
	m.Dirty = false
	m.pooled = false
	return m
}

// release returns a fully-handled message to its home pool. Releasing a
// message that is already pooled is recorded (and the message left alone)
// rather than corrupting the free list; the accounting checks fail loudly on
// any such release.
//
//ccsvm:pooled put
//ccsvm:hotpath
func (m *Msg) release() {
	p := m.home
	if m.pooled {
		p.stats.DoubleReleases++
		return
	}
	m.pooled = true
	p.stats.Puts++
	p.free = append(p.free, m) //ccsvm:allocok // free list returns to its high-water mark
}

// send wraps the protocol message in a pooled network message and sends it;
// the network recycles its envelope after delivery.
func send(net noc.Network, src, dst noc.NodeID, m *Msg) {
	nm := net.NewMessage()
	nm.Src, nm.Dst, nm.SizeBytes, nm.Payload = src, dst, m.sizeBytes(), m
	net.Send(nm)
}

// String formats the message for traces.
func (m *Msg) String() string {
	return fmt.Sprintf("%s %v req=%d acks=%d", m.Type, m.Addr, m.Requestor, m.AckCount)
}

// BankMapper maps a line address to the directory/L2 bank responsible for it.
type BankMapper func(mem.LineAddr) noc.NodeID

// InterleaveBanks returns a BankMapper that interleaves consecutive lines
// across the given bank node IDs, the standard address-interleaved banking of
// a shared L2.
func InterleaveBanks(banks []noc.NodeID) BankMapper {
	if len(banks) == 0 {
		panic("coherence: no banks")
	}
	n := uint64(len(banks))
	return func(addr mem.LineAddr) noc.NodeID {
		return banks[uint64(addr)%n]
	}
}
