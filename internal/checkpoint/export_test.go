package checkpoint

// setGC replaces NewStore's GC limits (the paper's 100 and 400).
func (s *Store) setGC(keepLatest, maxTotal int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keepLatest, s.maxTotal = keepLatest, maxTotal
}

// deletedCount is how many checkpoints GC and the Drop calls removed.
func (s *Store) deletedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deleted
}

// formatVersion is the container version a checkpoint file was written
// in, read from its header.
func formatVersion(data []byte) uint32 {
	ver, _, _ := fileFormat.Read(data)
	return ver
}
