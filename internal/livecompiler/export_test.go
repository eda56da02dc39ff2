package livecompiler

import "livesim/internal/hdl/ast"

// ASTs hands the external tests the parsed modules of the last successful
// build: the objects shared between builds that a build must not write to.
func (c *Compiler) ASTs() map[string]*ast.Module {
	out := map[string]*ast.Module{}
	for name, mi := range c.last.analysis.Modules {
		out[name] = mi.AST
	}
	return out
}
