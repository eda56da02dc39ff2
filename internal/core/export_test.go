package core

import (
	"livesim/internal/checkpoint"
	"livesim/internal/sim"
	"livesim/internal/vm"
	"livesim/internal/xform"
)

// RestoreAdapted restores st, captured under objects, into sm through the
// session's restore of a capture from a retained older version, with ops
// as the history's one step from the capture's version to the current
// one.
func RestoreAdapted(sm *sim.Sim, st *sim.State, objects map[string]*vm.Object, ops map[string][]xform.Op) error {
	h := xform.NewHistory("old")
	if err := h.Add("new", "old", ops); err != nil {
		return err
	}
	s := &Session{versions: h, version: "new", versionObjects: map[string]map[string]*vm.Object{"old": objects}}
	return s.restoreStateLocked(sm, &checkpoint.Checkpoint{Version: "old", State: st})
}

// PowerOn puts pipe back to power-on through the restore an edit makes
// when no checkpoint precedes its cycle.
func (s *Session) PowerOn(pipe string) error {
	return s.restoreFromCheckpoint(s.pipes[pipe], nil)
}
