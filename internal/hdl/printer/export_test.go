package printer

import (
	"strings"

	"livesim/internal/hdl/ast"
)

// Accessors only this package's tests read.

// File renders a whole source file.
func File(f *ast.SourceFile) string {
	var sb strings.Builder
	for i, m := range f.Modules {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(Module(m))
	}
	return sb.String()
}
