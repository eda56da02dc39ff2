package checkpoint

import "livesim/internal/sim"

// setGC replaces NewStore's GC limits (the paper's 100 and 400).
func (s *Store) setGC(keepLatest, maxTotal int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keepLatest, s.maxTotal = keepLatest, maxTotal
}

// heldPastLen counts the checkpoints the store's backing array still
// holds beyond its length, where nothing but the array reaches them.
func (s *Store) heldPastLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, cp := range s.cps[len(s.cps):cap(s.cps)] {
		if cp != nil {
			n++
		}
	}
	return n
}

// formatVersion is the container version a checkpoint file was written
// in, read from its header.
func formatVersion(data []byte) uint32 {
	ver, _, _ := fileFormat.Read(data)
	return ver
}

// recount is ApproxBytes counted from nothing: each checkpoint's state
// less the pages it shares with the one before it, and its Aux.
func (s *Store) recount() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	var prev *sim.State
	for _, cp := range s.cps {
		n += uint64(cp.State.UnsharedBytes(prev))
		prev = cp.State
		for _, aux := range cp.Aux {
			n += uint64(len(aux))
		}
	}
	return n
}
