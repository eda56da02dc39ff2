package checkpoint

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

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
		cp := s.Add(mkState(c), "v1", 0)
		cp.Aux = map[string][]byte{"tb0": make([]byte, c)}
		want += cp.State.Bytes() + int(c)
	}
	if got := s.ApproxBytes(); got != uint64(want) {
		t.Errorf("ApproxBytes %d, want %d", got, want)
	}
}

// TestConcurrentUse: Add, Select, Before and Bytes from several goroutines
// at once (run under -race).
func TestConcurrentUse(t *testing.T) {
	s := NewStore()
	s.MaxTotal, s.KeepLatest = 20, 5
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

func TestGCKeepsLatestAndThins(t *testing.T) {
	s := NewStore()
	s.KeepLatest = 10
	s.MaxTotal = 20
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
	if s.Deleted != 80 {
		t.Errorf("deleted %d", s.Deleted)
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

func TestVersionOps(t *testing.T) {
	s := NewStore()
	s.Add(mkState(1), "v1", 0)
	s.Add(mkState(2), "v1", 0)
	s.Add(mkState(3), "v2", 0)
	if n := s.RelabelVersion("v1", "v3"); n != 2 {
		t.Errorf("relabel %d", n)
	}
	if n := s.DropOtherVersions("v3"); n != 1 {
		t.Errorf("dropped %d", n)
	}
	if s.Len() != 2 {
		t.Errorf("len %d", s.Len())
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
// words in one counted run, the layout every LSCP file has; decoding
// builds pages of sim.PageWords again.
func TestEncodeIgnoresPaging(t *testing.T) {
	st := pagedState(9)
	m := st.Nodes[0].Mems[0]
	flat := make([]uint64, m.Len())
	m.CopyTo(flat)
	want := binary.LittleEndian.AppendUint64(nil, 9)
	want = binary.LittleEndian.AppendUint64(want, 0)
	want = binary.LittleEndian.AppendUint64(want, 1)
	want = appendString(want, "top")
	want = appendString(want, "m")
	want = appendWords(want, []uint64{9})
	want = binary.LittleEndian.AppendUint64(want, 2)
	want = appendWords(want, flat)
	want = appendWords(want, nil)
	got := encodeState(st)
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded %d bytes, want the flat layout's %d", len(got), len(want))
	}
	back, err := DecodeState(got)
	if err != nil {
		t.Fatal(err)
	}
	dm := back.Nodes[0].Mems[0]
	if len(dm) != 4 || len(dm[0]) != sim.PageWords || len(dm[3]) != 5 {
		t.Fatalf("decoded %d pages, want 3 of %d words and one of 5", len(dm), sim.PageWords)
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
