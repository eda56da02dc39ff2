package parser

import (
	"fmt"

	"livesim/internal/hdl/ast"
)

// Accessors only this package's tests read.

// ParseModule parses a single module definition from src.
func ParseModule(file, src string) (*ast.Module, error) {
	sf, err := ParseFile(file, src)
	if err != nil {
		return nil, err
	}
	if len(sf.Modules) != 1 {
		return nil, fmt.Errorf("%s: expected exactly one module, found %d", file, len(sf.Modules))
	}
	return sf.Modules[0], nil
}
