package coherence

import (
	"testing"

	"ccsvm/internal/mem"
)

// txnAddr is the line every steady-state transaction case works on.
const txnAddr = mem.PAddr(0x4000)

// nop is the completion callback of the steady-state cases: a plain function
// value, so issuing an access allocates nothing on the caller's side.
func nop() {}

// txnPhase is a set of accesses issued together and run to quiescence.
type txnPhase []struct {
	core int
	typ  mem.AccessType
}

// txnCase is a repeatable coherence transaction: warm leaves the line in the
// state cycle starts from, and cycle returns it there.
type txnCase struct {
	name        string
	cores       int
	warm, cycle []txnPhase
}

// txnCases are the miss shapes the steady-state allocation test and the
// benchmarks drive, on one line that stays resident in the L2:
//   - a GetS to a remote owner (three hops under MOESI's owner forwarding,
//     four under MESI), followed by the owner's upgrade back to M;
//   - a GetM that takes the line from the other cache's M copy through an
//     owner forward;
//   - three sharers reading the line concurrently, then an invalidation
//     round when a fourth cache writes it.
var txnCases = []txnCase{
	{
		name:  "GetSRemoteOwner",
		cores: 2,
		warm:  []txnPhase{{{0, mem.Write}}},
		cycle: []txnPhase{{{1, mem.Read}}, {{0, mem.Write}}},
	},
	{
		name:  "GetMOwnerForward",
		cores: 2,
		warm:  []txnPhase{{{0, mem.Write}}},
		cycle: []txnPhase{{{1, mem.Write}}, {{0, mem.Write}}},
	},
	{
		name:  "InvalidationRound",
		cores: 4,
		warm:  []txnPhase{{{0, mem.Write}}},
		cycle: []txnPhase{{{1, mem.Read}, {2, mem.Read}, {3, mem.Read}}, {{0, mem.Write}}},
	},
}

// run issues each phase's accesses and runs the engine dry after each.
func (s *testSystem) run(phases []txnPhase) {
	for _, ph := range phases {
		for _, a := range ph {
			s.l1s[a.core].Access(mem.Request{Type: a.typ, Addr: txnAddr, Size: 8}, nop)
		}
		s.engine.Run()
	}
}

// TestSteadyStateTransactionAllocs proves the transaction path allocates
// nothing once warm: MSHRs, sharer sets, scratch lists, checker records and
// messages are all reused, and L2-hit responses build no continuation.
func TestSteadyStateTransactionAllocs(t *testing.T) {
	for _, proto := range protocolList {
		for _, tc := range txnCases {
			t.Run(proto.Name+"/"+tc.name, func(t *testing.T) {
				s := newTestSystemProto(t, tc.cores, 1, proto)
				s.run(tc.warm)
				// Warm up long enough for the engine's event heap, free list
				// and every pool to reach their high-water capacity.
				for i := 0; i < 500; i++ {
					s.run(tc.cycle)
				}
				allocs := testing.AllocsPerRun(200, func() { s.run(tc.cycle) })
				s.quiesce(t)
				if allocs != 0 {
					t.Fatalf("steady-state %s cycle allocated %v objects, want 0", tc.name, allocs)
				}
			})
		}
	}
}

// benchmarkTxn times one cycle of a transaction case per iteration.
func benchmarkTxn(b *testing.B, proto *Protocol, tc txnCase) {
	s := newTestSystemProto(b, tc.cores, 1, proto)
	s.run(tc.warm)
	s.run(tc.cycle)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.run(tc.cycle)
	}
}

// BenchmarkMiss3Hop is a write miss served by the other cache's Modified
// copy under MOESI: requestor, directory, owner, requestor. One iteration is
// two such misses, the line migrating there and back.
func BenchmarkMiss3Hop(b *testing.B) { benchmarkTxn(b, ProtocolMOESI, txnCases[1]) }

// BenchmarkMiss4Hop is the same migration under MESI, where the owner writes
// back to the directory and the directory answers: four hops per miss.
func BenchmarkMiss4Hop(b *testing.B) { benchmarkTxn(b, ProtocolMESI, txnCases[1]) }

// BenchmarkInvalidateRound is three concurrent read misses followed by a
// write that invalidates all three sharers, under MOESI.
func BenchmarkInvalidateRound(b *testing.B) { benchmarkTxn(b, ProtocolMOESI, txnCases[2]) }
