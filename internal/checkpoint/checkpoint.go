// Package checkpoint implements LiveSim's checkpointing subsystem
// (Sections III-B, III-D and Figure 2 of the paper):
//
//   - checkpoints are taken at regular cycle intervals during execution;
//   - a checkpoint is a stop-the-world capture of the state, as the
//     paper's forked child that "creates the checkpoint and halts" is its
//     memory, and like the child's untouched pages its memory pages that
//     did not change since the previous capture are shared with that
//     capture (sim.Snapshot); nothing serializes it until it leaves the
//     process (a checkpoint file, or Bytes);
//   - reloading picks the checkpoint closest to 10k cycles before the
//     point of interest (Section III-D, the distance is tunable);
//   - garbage collection keeps the latest 100 checkpoints and thins older
//     ones to roughly equal spacing (Figure 2(c)).
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"livesim/internal/obs"
	"livesim/internal/sim"
)

// Checkpoint is one saved simulation state. Its State is never written
// after Add, so any number of goroutines may read it.
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
}

// Bytes serializes the checkpoint's state (see DecodeState), on each call.
func (c *Checkpoint) Bytes() []byte { return encodeState(c.State) }

// Store holds a session's checkpoints and applies the GC policy.
type Store struct {
	mu sync.Mutex

	// KeepLatest is how many of the newest checkpoints are immune to
	// thinning (the paper keeps the 100 latest).
	KeepLatest int
	// MaxTotal caps the total number of live checkpoints; older ones are
	// thinned toward equal spacing when the cap is exceeded.
	MaxTotal int

	cps    []*Checkpoint
	nextID int

	// Deleted counts checkpoints removed by GC (observability).
	Deleted int

	// metrics, when set, receives checkpoint_* counters. cTakes is
	// resolved once in SetMetrics so Add never pays a registry lookup;
	// both are nil-safe no-ops when unset.
	metrics *obs.Registry
	cTakes  *obs.Counter
}

// NewStore returns a store with the paper's defaults.
func NewStore() *Store {
	return &Store{KeepLatest: 100, MaxTotal: 400}
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
// as a new checkpoint and applies the GC policy.
func (s *Store) Add(st *sim.State, version string, historyPos int) *Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := &Checkpoint{
		ID:         s.nextID,
		Cycle:      st.Cycle,
		Version:    version,
		HistoryPos: historyPos,
		State:      st,
	}
	s.nextID++
	s.cps = append(s.cps, cp)
	s.gcLocked()
	s.cTakes.Inc()
	return cp
}

// Wait returns at once: a checkpoint is complete when Add returns, so
// there is nothing to wait for.
func (s *Store) Wait() {}

// ApproxBytes estimates the store's in-memory footprint: every live
// checkpoint's slot arrays, memory pages and Aux side state. A memory
// page a checkpoint shares with the one before it in the store is not
// counted again, so a run of consecutive captures costs its first state
// plus the pages each later one changed. Feeds the governance plane's
// per-session memory gauges.
func (s *Store) ApproxBytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	var prev *sim.State
	for _, cp := range s.cps {
		if cp.State != nil {
			n += unsharedBytes(cp.State, prev)
			prev = cp.State
		}
		for _, aux := range cp.Aux {
			n += uint64(len(aux))
		}
	}
	return n
}

// unsharedBytes is the size of st less the memory pages it shares with
// prev at the same node, memory and page index; prev may be nil.
func unsharedBytes(st, prev *sim.State) uint64 {
	var n uint64
	for i := range st.Nodes {
		nd := &st.Nodes[i]
		n += 8 * uint64(len(nd.Slots))
		for mi, m := range nd.Mems {
			var pm sim.Mem
			if prev != nil && i < len(prev.Nodes) && mi < len(prev.Nodes[i].Mems) {
				pm = prev.Nodes[i].Mems[mi]
			}
			for pi, page := range m {
				if pi >= len(pm) || !sim.SamePage(page, pm[pi]) {
					n += 8 * uint64(len(page))
				}
			}
		}
	}
	return n
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

// DropOtherVersions removes checkpoints whose design version is not v — used
// when the consistency verifier proves old-version checkpoints invalid.
func (s *Store) DropOtherVersions(v string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.cps[:0]
	dropped := 0
	for _, cp := range s.cps {
		if cp.Version == v {
			kept = append(kept, cp)
		} else {
			dropped++
		}
	}
	s.cps = kept
	s.Deleted += dropped
	s.metrics.Counter("checkpoint_gc_deleted").Add(uint64(dropped))
	return dropped
}

// DropVersionAfter removes checkpoints of the given version at or beyond
// cycle — the cleanup after the consistency verifier finds a divergence
// point: everything past it describes states the new code cannot reach.
func (s *Store) DropVersionAfter(version string, cycle uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.cps[:0]
	dropped := 0
	for _, cp := range s.cps {
		if cp.Version == version && cp.Cycle >= cycle {
			dropped++
			continue
		}
		kept = append(kept, cp)
	}
	s.cps = kept
	s.Deleted += dropped
	s.metrics.Counter("checkpoint_gc_deleted").Add(uint64(dropped))
	return dropped
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
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.cps[:0]
	dropped := 0
	for _, cp := range s.cps {
		if cp.ID >= mark {
			dropped++
			continue
		}
		kept = append(kept, cp)
	}
	s.cps = kept
	s.Deleted += dropped
	s.metrics.Counter("checkpoint_gc_deleted").Add(uint64(dropped))
	return dropped
}

// DropAfterCycle removes checkpoints beyond the given cycle — the cleanup
// after restoring an external checkpoint file: later checkpoints describe
// a future the restored session may never revisit.
func (s *Store) DropAfterCycle(cycle uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.cps[:0]
	dropped := 0
	for _, cp := range s.cps {
		if cp.Cycle > cycle {
			dropped++
			continue
		}
		kept = append(kept, cp)
	}
	s.cps = kept
	s.Deleted += dropped
	s.metrics.Counter("checkpoint_gc_deleted").Add(uint64(dropped))
	return dropped
}

// RelabelVersion rewrites the version tag on checkpoints — used after the
// verifier proves old-version checkpoints remain consistent under the new
// code, making them loadable as new-version checkpoints.
func (s *Store) RelabelVersion(from, to string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, cp := range s.cps {
		if cp.Version == from {
			cp.Version = to
			n++
		}
	}
	return n
}

// gcLocked applies the Figure 2(c) policy: the newest KeepLatest
// checkpoints always survive; if the total still exceeds MaxTotal, older
// checkpoints are thinned by repeatedly deleting the one whose removal
// leaves the most even spacing (approximated by deleting the checkpoint
// with the smallest gap to its predecessor).
func (s *Store) gcLocked() {
	if s.MaxTotal <= 0 || len(s.cps) <= s.MaxTotal {
		return
	}
	sort.Slice(s.cps, func(i, j int) bool { return s.cps[i].Cycle < s.cps[j].Cycle })
	for len(s.cps) > s.MaxTotal {
		limit := len(s.cps) - s.KeepLatest // only indexes < limit are candidates
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
		s.cps = append(s.cps[:bestIdx], s.cps[bestIdx+1:]...)
		s.Deleted++
		s.metrics.Counter("checkpoint_gc_deleted").Inc()
	}
}

// encodeState serializes a state deterministically: cycle, finished flag
// and node count, then per node its path, object key, slots and memories,
// every string and run counted, all u64 LE.
func encodeState(st *sim.State) []byte {
	return appendState(make([]byte, 0, stateSize(st)), st)
}

// stateSize is the length of encodeState(st).
func stateSize(st *sim.State) int {
	size := 24
	for i := range st.Nodes {
		n := &st.Nodes[i]
		size += 32 + len(n.Path) + len(n.ObjKey) + 8*len(n.Slots)
		for _, m := range n.Mems {
			size += 8 + 8*m.Len()
		}
	}
	return size
}

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
		b = appendWords(b, n.Slots)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(n.Mems)))
		for _, m := range n.Mems {
			b = binary.LittleEndian.AppendUint64(b, uint64(m.Len()))
			for _, page := range m {
				for _, v := range page {
					b = binary.LittleEndian.AppendUint64(b, v)
				}
			}
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint64(b, uint64(len(s))), s...)
}

func appendWords(b []byte, w []uint64) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(w)))
	for _, v := range w {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// DecodeState parses what Bytes produces. It never panics, and allocates
// nothing the length of buf cannot justify.
func DecodeState(buf []byte) (*sim.State, error) {
	r := &reader{buf: buf}
	st := &sim.State{Cycle: r.u64(), Finished: r.u64() != 0}
	// A node is at least its four 8-byte counts.
	st.Nodes = make([]sim.NodeState, r.count(32, "nodes"))
	for i := range st.Nodes {
		n := &st.Nodes[i]
		n.Path, n.ObjKey = string(r.bytes()), string(r.bytes())
		n.Slots = r.words()
		if nm := r.count(8, "memories"); nm > 0 {
			n.Mems = make([]sim.Mem, nm)
			for j := range n.Mems {
				n.Mems[j] = r.mem()
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return st, nil
}

// mem reads a counted run of u64s into pages of sim.PageWords, each its
// own allocation (see sim.Mem); an empty run is nil.
func (r *reader) mem() sim.Mem {
	n := r.count(8, "words")
	if n == 0 {
		return nil
	}
	m := make(sim.Mem, (n+sim.PageWords-1)/sim.PageWords)
	for i := range m {
		page := make([]uint64, min(sim.PageWords, n-i*sim.PageWords))
		for j := range page {
			page[j] = binary.LittleEndian.Uint64(r.buf[r.off:])
			r.off += 8
		}
		m[i] = page
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
func (r *reader) count(size int, what string) int {
	n := r.u64()
	if rem := uint64(len(r.buf) - r.off); n > rem/uint64(size) {
		if r.err == nil {
			r.err = fmt.Errorf("checkpoint corrupt: %d %s in %d remaining bytes", n, what, rem)
		}
		return 0
	}
	return int(n)
}

func (r *reader) bytes() []byte {
	n := r.count(1, "bytes of string")
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// words reads a counted run of u64s; an empty run is nil.
func (r *reader) words() []uint64 {
	n := r.count(8, "words")
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
