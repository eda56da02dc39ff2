package codegen

import (
	"livesim/internal/hdl/elab"
	"livesim/internal/vm"
)

// Lower is Compile without tidy: the pass's input, which tidy_test.go runs
// as the pass's reference.
func Lower(m *elab.Module, opts Options) (*vm.Object, error) {
	obj, _, err := lower(m, opts)
	return obj, err
}
