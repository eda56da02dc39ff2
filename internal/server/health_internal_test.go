package server

import "testing"

// An `import` placeholder, a standby's seed landing, answers its own
// requests with recovering but leaves the daemon's health "ok": a fleet
// keeps placing sessions on a backend receiving a migration or a
// standby. A boot-time replay holds it at "recovering".
func TestImportPlaceholderLeavesHealthOK(t *testing.T) {
	s := New(Config{})
	defer s.Halt()
	for _, c := range []struct {
		via        way
		status     string
		recovering int
	}{
		{viaImport, "ok", 0},
		{viaRecover, "recovering", 1},
	} {
		h, _, err := s.reserve("r0", c.via)
		if err != nil {
			t.Fatal(err)
		}
		got := s.health()
		s.abandon(h)
		s.recoveryWG.Done()
		if got.Status != c.status || got.Recovering != c.recovering || got.Sessions != 1 {
			t.Errorf("via %d: health %+v, want %s with %d recovering of 1 session", c.via, got, c.status, c.recovering)
		}
	}
}
