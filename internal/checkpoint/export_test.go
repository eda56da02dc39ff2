package checkpoint

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
