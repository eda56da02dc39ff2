// Package checkpoint implements LiveSim's checkpointing subsystem
// (Sections III-B, III-D and Figure 2 of the paper):
//
//   - checkpoints are taken at regular cycle intervals during execution;
//   - a checkpoint is a stop-the-world capture of the state, as the
//     paper's forked child that "creates the checkpoint and halts" is its
//     memory, less every slot one settle derives again; like the child's
//     untouched pages, its memory pages that did not change since the
//     previous capture are shared with that capture, and its all-zero
//     pages are one shared page (sim.Snapshot); nothing serializes it
//     until it leaves the process (a checkpoint file, or Bytes);
//   - reloading picks the checkpoint closest to 10k cycles before the
//     point of interest (Section III-D, the distance is tunable);
//   - garbage collection keeps the latest 100 checkpoints and thins older
//     ones to roughly equal spacing (Figure 2(c)).
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"livesim/internal/obs"
	"livesim/internal/sim"
)

// Checkpoint is one saved simulation state: a Store's, or one in no
// store yet (a capture, or a decoded file) with ID 0. Its State is never
// written after Add, so any number of goroutines may read it.
type Checkpoint struct {
	ID      int
	Cycle   uint64
	Version string // design version (register-transform history node)
	// HistoryPos is the session-history position (number of run operations
	// applied when the checkpoint was taken).
	HistoryPos int
	// State is the raw captured state (the "forked" copy).
	State *sim.State
	// Aux carries opaque side state captured with the checkpoint — the
	// session stores testbench snapshots here so a reload resumes the
	// whole operation history, not just the RTL state.
	Aux map[string][]byte

	// cost is what the checkpoint adds to its store's ApproxBytes, given
	// the checkpoint before it there.
	cost uint64
}

// Bytes serializes the checkpoint's state (see DecodeState), on each call.
func (c *Checkpoint) Bytes() []byte { return encodeState(c.State) }

// Store holds a session's checkpoints and applies the GC policy.
type Store struct {
	mu sync.Mutex

	// keepLatest is how many of the newest checkpoints are immune to
	// thinning (the paper keeps the 100 latest).
	keepLatest int
	// maxTotal caps the total number of live checkpoints; older ones are
	// thinned toward equal spacing when the cap is exceeded.
	maxTotal int

	cps    []*Checkpoint
	nextID int
	// bytes is ApproxBytes: the sum of the live checkpoints' costs, kept
	// current as checkpoints come and go.
	bytes uint64

	// metrics, when set, receives checkpoint_* counters. cTakes is
	// resolved once in SetMetrics so Add never pays a registry lookup;
	// both are nil-safe no-ops when unset.
	metrics *obs.Registry
	cTakes  *obs.Counter
}

// NewStore returns a store with the paper's defaults.
func NewStore() *Store {
	return &Store{keepLatest: 100, maxTotal: 400}
}

// SetMetrics points the store at a metrics registry (nil = off):
// checkpoint_takes and checkpoint_gc_deleted.
func (s *Store) SetMetrics(reg *obs.Registry) {
	s.mu.Lock()
	s.metrics = reg
	s.cTakes = reg.Counter("checkpoint_takes")
	s.mu.Unlock()
}

// Add records st, which the caller hands over and must not write again,
// as a new checkpoint with no side state and applies the GC policy.
func (s *Store) Add(st *sim.State, version string, historyPos int) *Checkpoint {
	return s.AddCapture(&Checkpoint{Cycle: st.Cycle, Version: version, HistoryPos: historyPos, State: st})
}

// AddCapture records c, a capture in no store with its Aux filled in,
// as a new checkpoint, gives it its ID and applies the GC policy. The
// caller hands c over and must not write it again: it is whole before
// any reader of the store can see it.
func (s *Store) AddCapture(c *Checkpoint) *Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.ID = s.nextID
	s.nextID++
	s.cps = append(s.cps, c)
	s.chargeLocked(len(s.cps) - 1)
	s.gcLocked()
	s.cTakes.Inc()
	return c
}

// chargeLocked counts again what the checkpoint at i adds to the
// footprint: its state less the pages it shares with the checkpoint
// before it, and its Aux.
func (s *Store) chargeLocked(i int) {
	cp := s.cps[i]
	var prev *sim.State
	if i > 0 {
		prev = s.cps[i-1].State
	}
	n := uint64(cp.State.UnsharedBytes(prev))
	for _, aux := range cp.Aux {
		n += uint64(len(aux))
	}
	s.bytes += n - cp.cost
	cp.cost = n
}

// Wait returns at once: a checkpoint is complete when Add returns, so
// there is nothing to wait for.
func (s *Store) Wait() {}

// ApproxBytes estimates the store's in-memory footprint: every live
// checkpoint's captured slots, memory pages and Aux side state. A memory
// page a checkpoint shares with the one before it in the store is not
// counted again, and the shared zero page not at all, so a run of
// consecutive captures costs its first state plus the pages each later
// one changed. Feeds the governance plane's per-session memory gauges.
// The count is kept as checkpoints come and go, so reading it is O(1).
func (s *Store) ApproxBytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Len returns the number of live checkpoints.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cps)
}

// All returns the live checkpoints ordered by cycle.
func (s *Store) All() []*Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Checkpoint, len(s.cps))
	copy(out, s.cps)
	return out
}

// Select returns the checkpoint best suited for re-running to reach
// target: the newest checkpoint at or before target-lookback. When none
// is old enough, the oldest checkpoint at or before target is returned;
// nil means the simulation must restart from cycle 0.
//
// lookback is the paper's "closest to 10K cycles before the stopping
// point" parameter.
func (s *Store) Select(target, lookback uint64) *Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	goal := uint64(0)
	if target > lookback {
		goal = target - lookback
	}
	var best *Checkpoint
	for _, cp := range s.cps {
		if cp.Cycle > target {
			continue
		}
		if cp.Cycle <= goal {
			if best == nil || cp.Cycle > best.Cycle {
				best = cp
			}
		}
	}
	if best != nil {
		return best
	}
	// Nothing old enough: take the earliest usable one.
	for _, cp := range s.cps {
		if cp.Cycle <= target && (best == nil || cp.Cycle < best.Cycle) {
			best = cp
		}
	}
	return best
}

// Before returns the checkpoints with Cycle <= target, ordered by cycle —
// the candidates for parallel consistency verification (Figure 6).
func (s *Store) Before(target uint64) []*Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Checkpoint
	for _, cp := range s.cps {
		if cp.Cycle <= target {
			out = append(out, cp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cycle < out[j].Cycle })
	return out
}

// DropVersionAfter removes checkpoints of the given version at or beyond
// cycle — the cleanup after the consistency verifier finds a divergence
// point: everything past it describes states the new code cannot reach.
func (s *Store) DropVersionAfter(version string, cycle uint64) int {
	return s.drop(func(cp *Checkpoint) bool { return cp.Version == version && cp.Cycle >= cycle })
}

// Mark returns a watermark: the ID the next added checkpoint will get.
// Pass it to DropSince to undo everything added after this point.
func (s *Store) Mark() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextID
}

// DropSince removes every checkpoint whose ID is at or beyond the given
// Mark watermark — the transactional-rollback cleanup: checkpoints taken
// while re-executing under a change that later failed describe states the
// restored session never reached.
func (s *Store) DropSince(mark int) int {
	return s.drop(func(cp *Checkpoint) bool { return cp.ID >= mark })
}

// DropAfterCycle removes checkpoints beyond the given cycle — the cleanup
// after restoring an external checkpoint file: later checkpoints describe
// a future the restored session may never revisit.
func (s *Store) DropAfterCycle(cycle uint64) int {
	return s.drop(func(cp *Checkpoint) bool { return cp.Cycle > cycle })
}

// drop removes the checkpoints gone reports and returns how many. The
// slots past the new length are cleared, so nothing keeps a dropped
// checkpoint reachable. Only a checkpoint that now follows another than
// before is counted again.
func (s *Store) drop(gone func(cp *Checkpoint) bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept, moved := s.cps[:0], false
	for _, cp := range s.cps {
		if gone(cp) {
			s.bytes -= cp.cost
			moved = true
			continue
		}
		kept = append(kept, cp)
		if moved {
			s.chargeLocked(len(kept) - 1)
			moved = false
		}
	}
	dropped := len(s.cps) - len(kept)
	clear(s.cps[len(kept):])
	s.cps = kept
	s.metrics.Counter("checkpoint_gc_deleted").Add(uint64(dropped))
	return dropped
}

// gcLocked applies the Figure 2(c) policy: the newest keepLatest
// checkpoints always survive; if the total still exceeds maxTotal, older
// checkpoints are thinned by repeatedly deleting the one whose removal
// leaves the most even spacing (approximated by deleting the checkpoint
// with the smallest gap to its predecessor).
func (s *Store) gcLocked() {
	if s.maxTotal <= 0 || len(s.cps) <= s.maxTotal {
		return
	}
	byCycle := func(i, j int) bool { return s.cps[i].Cycle < s.cps[j].Cycle }
	if !sort.SliceIsSorted(s.cps, byCycle) {
		sort.Slice(s.cps, byCycle)
		for i := range s.cps {
			s.chargeLocked(i)
		}
	}
	for len(s.cps) > s.maxTotal {
		limit := len(s.cps) - s.keepLatest // only indexes < limit are candidates
		if limit <= 1 {
			break
		}
		// Find the candidate (never the very first checkpoint: keeping the
		// oldest anchor preserves the ability to replay from far back)
		// whose predecessor gap is smallest.
		bestIdx, bestGap := -1, uint64(0)
		for i := 1; i < limit; i++ {
			gap := s.cps[i].Cycle - s.cps[i-1].Cycle
			if bestIdx < 0 || gap < bestGap {
				bestIdx, bestGap = i, gap
			}
		}
		if bestIdx < 0 {
			break
		}
		s.bytes -= s.cps[bestIdx].cost
		s.cps = slices.Delete(s.cps, bestIdx, bestIdx+1)
		s.chargeLocked(bestIdx) // bestIdx < limit, so one follows it
		s.metrics.Counter("checkpoint_gc_deleted").Inc()
	}
}

// encodeState serializes a state deterministically: cycle, finished flag
// and node count, then per node its path and object key, its slot count,
// a bitmap of the slots it holds and their values, and its memories, each
// as its word count, a bitmap of its all-zero pages and the words of the
// others; every string and run counted, all u64 LE. This is the state
// record of a version 3 checkpoint file.
func encodeState(st *sim.State) []byte {
	return appendState(make([]byte, 0, stateSize(st)), st)
}

// stateSize is the length of encodeState(st).
func stateSize(st *sim.State) int {
	size := 24
	for i := range st.Nodes {
		n := &st.Nodes[i]
		size += 32 + len(n.Path) + len(n.ObjKey) + 8*words(n.SlotCount()) + 8*len(n.Slots)
		for _, m := range n.Mems {
			size += 8 + 8*words(len(m))
			for _, page := range m {
				if !sim.AllZero(page) {
					size += 8 * len(page)
				}
			}
		}
	}
	return size
}

// words is the number of u64 words of a bitmap of n bits.
func words(n int) int { return (n + 63) / 64 }

func appendState(b []byte, st *sim.State) []byte {
	finished := uint64(0)
	if st.Finished {
		finished = 1
	}
	b = binary.LittleEndian.AppendUint64(b, st.Cycle)
	b = binary.LittleEndian.AppendUint64(b, finished)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(st.Nodes)))
	for i := range st.Nodes {
		n := &st.Nodes[i]
		b = appendString(b, n.Path)
		b = appendString(b, n.ObjKey)
		count := n.SlotCount()
		b = binary.LittleEndian.AppendUint64(b, uint64(count))
		for w := range words(count) {
			held := ^uint64(0)
			switch {
			case n.Present != nil && w < len(n.Present):
				held = n.Present[w]
			case n.Present != nil:
				held = 0
			case count%64 != 0 && w == count/64:
				held = 1<<(count%64) - 1
			}
			b = binary.LittleEndian.AppendUint64(b, held)
		}
		for _, v := range n.Slots {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(len(n.Mems)))
		for _, m := range n.Mems {
			b = binary.LittleEndian.AppendUint64(b, uint64(m.Len()))
			for w := range words(len(m)) {
				var zero uint64
				for j, page := range m[w*64 : min(len(m), w*64+64)] {
					if sim.AllZero(page) {
						zero |= 1 << j
					}
				}
				b = binary.LittleEndian.AppendUint64(b, zero)
			}
			for _, page := range m {
				if !sim.AllZero(page) {
					for _, v := range page {
						b = binary.LittleEndian.AppendUint64(b, v)
					}
				}
			}
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint64(b, uint64(len(s))), s...)
}

// DecodeState parses what Bytes produces. It never panics, and allocates
// nothing the length of buf cannot justify.
func DecodeState(buf []byte) (*sim.State, error) { return decodeState(buf, true) }

// decodeState parses a state record: in the layout of version 3 files
// (encodeState) when partial is set, and otherwise in that of versions 1
// and 2, where a node holds its whole slot array and a memory all its
// words in one counted run. Either way an all-zero memory page decodes to
// the shared zero page, and a node that holds every slot has a nil
// Present.
func decodeState(buf []byte, partial bool) (*sim.State, error) {
	r := &reader{buf: buf}
	st := &sim.State{Cycle: r.u64(), Finished: r.u64() != 0}
	// A node is at least its four 8-byte counts.
	st.Nodes = make([]sim.NodeState, r.count(32, "nodes"))
	for i := range st.Nodes {
		ns := &st.Nodes[i]
		ns.Path, ns.ObjKey = string(r.bytes()), string(r.bytes())
		if partial {
			ns.NumSlots, ns.Present, ns.Slots = r.slots()
		} else {
			ns.Slots = r.words(r.count(8, "words"))
		}
		if nm := r.count(8, "memories"); nm > 0 {
			ns.Mems = make([]sim.Mem, nm)
			for j := range ns.Mems {
				ns.Mems[j] = r.mem(partial)
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return st, nil
}

// slots reads a version 3 node's slot count, present-slot bitmap and
// values. A node that holds every slot has a nil bitmap and a count of 0,
// as sim.NodeState has it.
func (r *reader) slots() (count int, present []uint64, values []uint64) {
	n := r.u64()
	present = r.bitmap(n, "slots")
	held := 0
	for _, w := range present {
		held += bits.OnesCount64(w)
	}
	values = r.words(r.bounded(uint64(held), 8, "slot values"))
	if uint64(held) == n {
		return 0, nil, values
	}
	return int(n), present, values
}

// bitmap reads a bitmap of n bits, refusing one the remaining bytes
// cannot hold or that sets a bit past n.
func (r *reader) bitmap(n uint64, what string) []uint64 {
	w := r.bounded(n/64+min(n%64, 1), 8, what+" bitmap words")
	if w == 0 {
		return nil
	}
	set := r.words(w)
	if n%64 != 0 && set[w-1]>>(n%64) != 0 && r.err == nil {
		r.err = fmt.Errorf("checkpoint corrupt: a %s bitmap names one past its %d", what, n)
	}
	return set
}

// mem reads a memory into pages of sim.PageWords, each its own
// allocation (see sim.Mem) but for all-zero pages, which are the shared
// zero page; an empty memory is nil. A version 3 memory (partial) is its
// word count, its zero-page bitmap and the words of the other pages; an
// older one is a counted run of its words.
func (r *reader) mem(partial bool) sim.Mem {
	var n int
	var zero []uint64
	if partial {
		count := r.u64()
		pages := count/sim.PageWords + min(count%sim.PageWords, 1)
		zero = r.bitmap(pages, "zero pages")
		if r.err != nil {
			return nil
		}
		n = int(count)
	} else {
		n = r.count(8, "words")
	}
	if n == 0 {
		return nil
	}
	m := make(sim.Mem, (n+sim.PageWords-1)/sim.PageWords)
	for i := range m {
		size := min(sim.PageWords, n-i*sim.PageWords)
		if zero != nil && zero[i/64]&(1<<(i%64)) != 0 {
			m[i] = sim.ZeroPage(size)
			continue
		}
		if page := r.words(r.bounded(uint64(size), 8, "words")); r.err != nil {
			return nil
		} else if sim.AllZero(page) {
			m[i] = sim.ZeroPage(size)
		} else {
			m[i] = page
		}
	}
	return m
}

// reader reads a checkpoint payload: u64 LE values, and counted runs
// bounded by the bytes that remain. The first failure sticks; every read
// after it returns a zero value.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) u64() uint64 {
	if r.err == nil && len(r.buf)-r.off < 8 {
		r.err = fmt.Errorf("checkpoint truncated at offset %d", r.off)
	}
	if r.err != nil {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// count reads the count of a run of items of at least size bytes each,
// refusing one the remaining bytes cannot hold before anything is
// allocated from it.
func (r *reader) count(size int, what string) int { return r.bounded(r.u64(), size, what) }

func (r *reader) bytes() []byte {
	n := r.count(1, "bytes of string")
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// bounded returns n if the remaining bytes hold n items of size bytes,
// and otherwise refuses it and returns 0.
func (r *reader) bounded(n uint64, size int, what string) int {
	if rem := uint64(len(r.buf) - r.off); n > rem/uint64(size) {
		if r.err == nil {
			r.err = fmt.Errorf("checkpoint corrupt: %d %s in %d remaining bytes", n, what, rem)
		}
		return 0
	}
	return int(n)
}

// words reads n u64s, which the caller has bounded; none is nil.
func (r *reader) words(n int) []uint64 {
	if n == 0 {
		return nil
	}
	w := make([]uint64, n)
	b := r.buf[r.off : r.off+8*n]
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	r.off += 8 * n
	return w
}
