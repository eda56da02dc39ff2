package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"livesim/internal/obs"
	"livesim/internal/sim"
)

func mkState(cycle uint64) *sim.State {
	return &sim.State{
		Cycle: cycle,
		Nodes: []sim.NodeState{
			{Path: "top", ObjKey: "m", Slots: []uint64{cycle, cycle * 2}, Mems: []sim.Mem{{{1, 2, 3}}}},
			{Path: "top.u0", ObjKey: "leaf", Slots: []uint64{cycle + 7}},
		},
	}
}

func TestAddAndSelect(t *testing.T) {
	s := NewStore()
	for c := uint64(0); c <= 100_000; c += 10_000 {
		s.Add(mkState(c), "v1", int(c/10_000))
	}
	s.Wait()
	if s.Len() != 11 {
		t.Fatalf("len %d", s.Len())
	}
	// Target 95_000 with 10k lookback: want newest cp <= 85_000.
	cp := s.Select(95_000, 10_000)
	if cp == nil || cp.Cycle != 80_000 {
		t.Fatalf("selected %+v", cp)
	}
	// Exact boundary: target 90_000, goal 80_000 -> cp at 80_000.
	cp = s.Select(90_000, 10_000)
	if cp == nil || cp.Cycle != 80_000 {
		t.Fatalf("selected %+v", cp)
	}
	// Target smaller than lookback: earliest checkpoint (cycle 0).
	cp = s.Select(5_000, 10_000)
	if cp == nil || cp.Cycle != 0 {
		t.Fatalf("selected %+v", cp)
	}
}

func TestSelectEmpty(t *testing.T) {
	s := NewStore()
	if cp := s.Select(100, 10); cp != nil {
		t.Fatalf("want nil, got %+v", cp)
	}
}

// TestEncodedRoundTrip: Bytes is deterministic and round-trips through
// DecodeState.
func TestEncodedRoundTrip(t *testing.T) {
	s := NewStore()
	cp := s.Add(mkState(42), "v1", 3)
	enc := cp.Bytes()
	if !bytes.Equal(enc, cp.Bytes()) || len(enc) != stateSize(cp.State) {
		t.Error("Bytes is not deterministic or not stateSize long")
	}
	got, err := DecodeState(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp.State) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, cp.State)
	}
}

// TestAddStartsNoGoroutine: a checkpoint is its state; taking one
// serializes nothing, in the background or otherwise.
func TestAddStartsNoGoroutine(t *testing.T) {
	s := NewStore()
	// Goroutines of earlier tests may still be exiting: the count must
	// not rise, it may fall.
	before := runtime.NumGoroutine()
	for c := uint64(0); c < 200; c++ {
		s.Add(mkState(c), "v1", int(c))
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("after add %d: %d goroutines, %d before", c, n, before)
		}
	}
}

// TestApproxBytesCountsEachStateOnce: the estimate is the state copies
// plus the Aux side state, exactly.
func TestApproxBytesCountsEachStateOnce(t *testing.T) {
	s := NewStore()
	want := 0
	for c := uint64(0); c < 30; c++ {
		cp := s.AddCapture(&Checkpoint{Cycle: c, Version: "v1", State: mkState(c),
			Aux: map[string][]byte{"tb0": make([]byte, c)}})
		want += cp.State.Bytes() + int(c)
	}
	if got := s.ApproxBytes(); got != uint64(want) {
		t.Errorf("ApproxBytes %d, want %d", got, want)
	}
}

// TestApproxBytesMatchesRecount: after every step of random sequences
// of adds (at cycles out of order too, and with side state), drops by
// version, by mark and by cycle, and GC past a small cap, the byte count
// the store keeps equals a count from nothing. Each capture shares its
// memory pages with the one taken before it, but for one it rewrites,
// as sim.Snapshot does, so who follows whom decides the count.
func TestApproxBytesMatchesRecount(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		s.setGC(3, 8)
		mem := sim.PagedMem(make([]uint64, 4*sim.PageWords))
		marks := []int{s.Mark()}
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				next := append(sim.Mem(nil), mem...)
				pg := rng.Intn(len(next))
				next[pg] = append([]uint64(nil), next[pg]...)
				next[pg][rng.Intn(sim.PageWords)] = rng.Uint64()
				mem = next
				cycle := uint64(step * 10)
				if op == 0 {
					cycle = uint64(rng.Intn(step*10 + 1))
				}
				st := &sim.State{Cycle: cycle, Nodes: []sim.NodeState{{Path: "top", ObjKey: "m",
					Slots: []uint64{cycle}, Mems: []sim.Mem{mem}}}}
				s.AddCapture(&Checkpoint{Cycle: cycle, Version: fmt.Sprintf("v%d", rng.Intn(3)), State: st,
					Aux: map[string][]byte{"tb0": make([]byte, rng.Intn(64))}})
				marks = append(marks, s.Mark())
			case op == 6:
				s.DropVersionAfter(fmt.Sprintf("v%d", rng.Intn(3)), uint64(rng.Intn(step*10+1)))
			case op == 7:
				s.DropSince(marks[rng.Intn(len(marks))])
			default:
				s.DropAfterCycle(uint64(rng.Intn(step*10 + 1)))
			}
			if got, want := s.ApproxBytes(), s.recount(); got != want {
				t.Fatalf("seed %d step %d: ApproxBytes %d, a recount %d", seed, step, got, want)
			}
		}
	}
}

// TestConcurrentUse: Add, Select, Before and Bytes from several goroutines
// at once (run under -race).
func TestConcurrentUse(t *testing.T) {
	s := NewStore()
	s.setGC(5, 20)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c := uint64(g*1000 + i)
				s.Add(mkState(c), "v1", i)
				if cp := s.Select(c, 10); cp != nil {
					if _, err := DecodeState(cp.Bytes()); err != nil {
						t.Error(err)
					}
				}
				for _, cp := range s.Before(c) {
					cp.Bytes()
				}
				s.ApproxBytes()
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 20 {
		t.Errorf("len %d", s.Len())
	}
}

func TestDecodeErrors(t *testing.T) {
	s := NewStore()
	cp := s.Add(mkState(1), "v1", 0)
	enc := cp.Bytes()
	for _, cut := range []int{0, 1, 8, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeState(enc[:cut]); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

// partialState is a one-node state that holds slots 1 and 66 of 70, and
// a memory of three pages whose middle one is all zero.
func partialState(cycle uint64) *sim.State {
	words := make([]uint64, 2*sim.PageWords+9)
	words[3], words[2*sim.PageWords+8] = cycle, 5
	return &sim.State{Cycle: cycle, Nodes: []sim.NodeState{{
		Path: "top", ObjKey: "m", NumSlots: 70, Present: []uint64{1 << 1, 1 << 2},
		Slots: []uint64{cycle, 7}, Mems: []sim.Mem{sim.PagedMem(words)},
	}}}
}

// slotPastCount is the encoding of partialState(3) with its second
// bitmap word naming slot 70, one past its count.
func slotPastCount() []byte {
	enc := encodeState(partialState(3))
	at := 24 + 8 + len("top") + 8 + len("m") + 8 + 8 // the second bitmap word
	binary.LittleEndian.PutUint64(enc[at:], 1<<2|1<<6)
	return enc
}

// TestDecodeRefusesSlotPastCount: a present-slot bitmap that names a
// slot past the node's slot count is refused, not indexed.
func TestDecodeRefusesSlotPastCount(t *testing.T) {
	back, err := DecodeState(encodeState(partialState(3)))
	if err != nil || !reflect.DeepEqual(back, partialState(3)) {
		t.Fatalf("partial state round trip: %v", err)
	}
	if m := back.Nodes[0].Mems[0]; !sim.SamePage(m[1], sim.ZeroPage(sim.PageWords)) {
		t.Error("the all-zero page did not decode to the shared zero page")
	}
	if _, err := DecodeState(slotPastCount()); err == nil || !strings.Contains(err.Error(), "past its 70") {
		t.Errorf("a bitmap naming slot 70 of 70: %v, want it refused", err)
	}
}

func TestGCKeepsLatestAndThins(t *testing.T) {
	s := NewStore()
	reg := obs.NewRegistry()
	s.SetMetrics(reg)
	s.setGC(10, 20)
	for c := uint64(0); c < 100; c++ {
		s.Add(mkState(c*1000), "v1", int(c))
	}
	s.Wait()
	if s.Len() != 20 {
		t.Fatalf("len %d want 20", s.Len())
	}
	all := s.All()
	// The 10 newest must be intact (cycles 90k..99k).
	newest := all[len(all)-10:]
	for i, cp := range newest {
		want := uint64(90+i) * 1000
		if cp.Cycle != want {
			t.Errorf("newest[%d] cycle %d want %d", i, cp.Cycle, want)
		}
	}
	// The oldest anchor must survive.
	if all[0].Cycle != 0 {
		t.Errorf("oldest %d want 0", all[0].Cycle)
	}
	// The 10 older survivors should be roughly evenly spread over 0..89k:
	// max gap should not exceed ~3x the ideal spacing.
	older := all[:len(all)-10]
	ideal := uint64(89_000) / uint64(len(older))
	for i := 1; i < len(older); i++ {
		gap := older[i].Cycle - older[i-1].Cycle
		if gap > 3*ideal+1000 {
			t.Errorf("gap %d too large (ideal %d): %v", gap, ideal, cycles(older))
		}
	}
	if n := reg.Counter("checkpoint_gc_deleted").Value(); n != 80 {
		t.Errorf("deleted %d", n)
	}
}

// TestRemovedCheckpointsAreUnreachable: neither GC nor a Drop call leaves
// a removed checkpoint in the backing array past the store's length.
func TestRemovedCheckpointsAreUnreachable(t *testing.T) {
	s := NewStore()
	s.setGC(4, 8)
	for c := uint64(0); c < 9; c++ {
		s.Add(mkState(c*100), "v1", int(c))
	}
	if n := s.heldPastLen(); n != 0 {
		t.Errorf("after GC: %d removed checkpoints still held", n)
	}
	if s.DropAfterCycle(300) == 0 {
		t.Fatal("nothing dropped")
	}
	if n := s.heldPastLen(); n != 0 {
		t.Errorf("after a drop: %d removed checkpoints still held", n)
	}
}

func cycles(cps []*Checkpoint) []uint64 {
	out := make([]uint64, len(cps))
	for i, cp := range cps {
		out[i] = cp.Cycle
	}
	return out
}

func TestBefore(t *testing.T) {
	s := NewStore()
	for _, c := range []uint64{500, 100, 300, 900} {
		s.Add(mkState(c), "v1", 0)
	}
	got := cycles(s.Before(600))
	want := []uint64{100, 300, 500}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestIDsMonotonic(t *testing.T) {
	s := NewStore()
	a := s.Add(mkState(1), "v1", 0)
	b := s.Add(mkState(2), "v1", 1)
	if b.ID != a.ID+1 {
		t.Errorf("ids %d %d", a.ID, b.ID)
	}
	if a.HistoryPos != 0 || b.HistoryPos != 1 {
		t.Errorf("history pos %d %d", a.HistoryPos, b.HistoryPos)
	}
}

// Property: encode/decode round-trips arbitrary small states.
func TestRoundTripProperty(t *testing.T) {
	f := func(cycle uint64, slots []uint64, mem []uint64, finished bool) bool {
		if len(slots) > 64 {
			slots = slots[:64]
		}
		if len(mem) > 64 {
			mem = mem[:64]
		}
		st := &sim.State{
			Cycle:    cycle,
			Finished: finished,
			Nodes: []sim.NodeState{
				{Path: "top", ObjKey: "k", Slots: slots, Mems: []sim.Mem{sim.PagedMem(mem)}},
			},
		}
		got, err := DecodeState(encodeState(st))
		if err != nil {
			return false
		}
		if got.Cycle != cycle || got.Finished != finished || len(got.Nodes) != 1 {
			return false
		}
		n := got.Nodes[0]
		if len(n.Slots) != len(slots) || n.Mems[0].Len() != len(mem) {
			return false
		}
		for i := range slots {
			if n.Slots[i] != slots[i] {
				return false
			}
		}
		for i := range mem {
			if n.Mems[0].At(i) != mem[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// pagedState is a one-node state whose memory spans three full pages and
// part of a fourth.
func pagedState(cycle uint64) *sim.State {
	words := make([]uint64, 3*sim.PageWords+5)
	for i := range words {
		words[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return &sim.State{Cycle: cycle, Nodes: []sim.NodeState{
		{Path: "top", ObjKey: "m", Slots: []uint64{cycle}, Mems: []sim.Mem{sim.PagedMem(words), nil}},
	}}
}

// TestEncodeIgnoresPaging: the bytes of a paged memory are those of its
// words, the layout of every version 3 file: the word count, a bitmap of
// the pages that hold nothing but zeros, and the words of the others in
// one run, however the memory was paged and whichever pages it shares.
// Decoding builds pages of sim.PageWords again, an all-zero one the
// shared zero page.
func TestEncodeIgnoresPaging(t *testing.T) {
	st := pagedState(9)
	m := st.Nodes[0].Mems[0]
	flat := make([]uint64, m.Len())
	m.CopyTo(flat)
	clear(flat[sim.PageWords : 2*sim.PageWords]) // page 1 all zero
	m[1] = make([]uint64, sim.PageWords)
	want := binary.LittleEndian.AppendUint64(nil, 9)
	want = binary.LittleEndian.AppendUint64(want, 0)
	want = binary.LittleEndian.AppendUint64(want, 1)
	want = appendString(want, "top")
	want = appendString(want, "m")
	for _, v := range []uint64{1, 1, 9, 2, uint64(len(flat)), 1 << 1} { // 1 slot, all present; 2 memories
		want = binary.LittleEndian.AppendUint64(want, v)
	}
	for i, v := range flat {
		if i < sim.PageWords || i >= 2*sim.PageWords {
			want = binary.LittleEndian.AppendUint64(want, v)
		}
	}
	want = binary.LittleEndian.AppendUint64(want, 0) // the empty memory
	got := encodeState(st)
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded %d bytes, want the flat layout's %d", len(got), len(want))
	}
	back, err := DecodeState(got)
	if err != nil {
		t.Fatal(err)
	}
	dm := back.Nodes[0].Mems[0]
	if len(dm) != 4 || len(dm[0]) != sim.PageWords || len(dm[3]) != 5 || !sim.SamePage(dm[1], sim.ZeroPage(sim.PageWords)) {
		t.Fatalf("decoded %d pages, want 3 of %d words, the second the zero page, and one of 5", len(dm), sim.PageWords)
	}
	if !reflect.DeepEqual(back, st) {
		t.Error("round trip mismatch")
	}
}

// TestApproxBytesCountsSharedPagesOnce: a page a checkpoint holds at the
// same place as the checkpoint before it is counted once.
func TestApproxBytesCountsSharedPagesOnce(t *testing.T) {
	s := NewStore()
	a := pagedState(1)
	b := pagedState(2)
	am, bm := a.Nodes[0].Mems[0], b.Nodes[0].Mems[0]
	copy(bm, am)
	bm[2] = append([]uint64(nil), am[2]...)
	bm[2][0]++
	s.Add(a, "v1", 0)
	s.Add(b, "v1", 1)
	want := a.Bytes() + 8*len(b.Nodes[0].Slots) + 8*sim.PageWords
	if got := s.ApproxBytes(); got != uint64(want) {
		t.Errorf("ApproxBytes %d, want %d: the first state, the second's slots and its one changed page", got, want)
	}
	if got, want := b.Bytes(), a.Bytes(); got != want {
		t.Errorf("State.Bytes %d of a state sharing pages, want the logical %d", got, want)
	}
}

// TestApproxBytesCountsZeroPageAsNothing: a store of two captures that
// hold two slots each and one memory — an all-zero page, the shared zero
// page, and a written page the second capture shares with the first —
// holds the four slots and the written page once.
func TestApproxBytesCountsZeroPageAsNothing(t *testing.T) {
	words := make([]uint64, 2*sim.PageWords)
	words[sim.PageWords] = 1
	first := partialState(1)
	first.Nodes[0].Mems = []sim.Mem{sim.PagedMem(words)}
	second := partialState(2)
	second.Nodes[0].Mems = first.Nodes[0].Mems
	s := NewStore()
	s.Add(first, "v1", 0)
	s.Add(second, "v1", 1)
	if got, want := s.ApproxBytes(), uint64(4*8+8*sim.PageWords); got != want {
		t.Errorf("ApproxBytes %d, want %d: four slots and one written page", got, want)
	}
}
