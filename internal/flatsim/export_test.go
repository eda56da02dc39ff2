package flatsim

import (
	"fmt"

	"livesim/internal/vm"
)

// Accessors only this package's tests read.

// Settle evaluates the combinational program (single pass — the design is
// globally levelized).
func (s *Sim) Settle() { s.Inst.RunComb(&s.Stats) }

// SetIn drives a top-level input port.
func (s *Sim) SetIn(name string, v uint64) error {
	i := s.Obj.PortIndex(name)
	if i < 0 || s.Obj.Ports[i].Dir != vm.In {
		return fmt.Errorf("no input port %q", name)
	}
	p := s.Obj.Ports[i]
	s.Inst.Slots[p.Slot] = v & p.Mask
	return nil
}

// Out reads a top-level port after Settle/Tick.
func (s *Sim) Out(name string) (uint64, error) {
	i := s.Obj.PortIndex(name)
	if i < 0 {
		return 0, fmt.Errorf("no port %q", name)
	}
	s.Settle()
	return s.Inst.Slots[s.Obj.Ports[i].Slot], nil
}
