// Package printer renders LiveHDL ASTs back to source text. Printing is
// behaviour-preserving: re-parsing the output yields a tree whose
// behavioural token stream matches the original (the round-trip property
// tests in this package enforce it). Only tests use it: those round
// trips, and internal/livecompiler's oracle, which prints the ASTs it
// checks for mutation.
package printer

import (
	"fmt"
	"strings"

	"livesim/internal/hdl/ast"
)

// Module renders one module definition.
func Module(m *ast.Module) string {
	var sb strings.Builder
	sb.WriteString("module ")
	sb.WriteString(m.Name)
	if len(m.Params) > 0 {
		sb.WriteString(" #(")
		for i, p := range m.Params {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString("parameter ")
			sb.WriteString(p.Name)
			if p.Default != nil {
				sb.WriteString(" = ")
				sb.WriteString(Expr(p.Default))
			}
		}
		sb.WriteString(")")
	}
	sb.WriteString(" (")
	for i, p := range m.Ports {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(p.Dir.String())
		if p.IsReg {
			sb.WriteString(" reg")
		}
		if p.Signed {
			sb.WriteString(" signed")
		}
		if p.Range != nil {
			fmt.Fprintf(&sb, " [%s:%s]", Expr(p.Range.MSB), Expr(p.Range.LSB))
		}
		sb.WriteByte(' ')
		sb.WriteString(p.Name)
	}
	sb.WriteString(");\n")
	for _, it := range m.Items {
		sb.WriteString(item(it, "  "))
	}
	sb.WriteString("endmodule\n")
	return sb.String()
}

func item(it ast.Item, ind string) string {
	switch x := it.(type) {
	case *ast.NetDecl:
		var sb strings.Builder
		sb.WriteString(ind)
		sb.WriteString(x.Kind.String())
		if x.Signed && x.Kind != ast.Integer {
			sb.WriteString(" signed")
		}
		if x.Range != nil && x.Kind != ast.Integer {
			fmt.Fprintf(&sb, " [%s:%s]", Expr(x.Range.MSB), Expr(x.Range.LSB))
		}
		sb.WriteByte(' ')
		sb.WriteString(x.Name)
		if x.Array != nil {
			fmt.Fprintf(&sb, " [%s:%s]", Expr(x.Array.MSB), Expr(x.Array.LSB))
		}
		if x.Init != nil {
			sb.WriteString(" = ")
			sb.WriteString(Expr(x.Init))
		}
		sb.WriteString(";\n")
		return sb.String()

	case *ast.LocalParam:
		return fmt.Sprintf("%slocalparam %s = %s;\n", ind, x.Name, Expr(x.Value))

	case *ast.ContAssign:
		return fmt.Sprintf("%sassign %s = %s;\n", ind, Expr(x.LHS), Expr(x.RHS))

	case *ast.AlwaysBlock:
		sens := "*"
		switch x.Edge {
		case ast.Posedge:
			sens = "posedge " + x.Clock
		case ast.Negedge:
			sens = "negedge " + x.Clock
		}
		return fmt.Sprintf("%salways @(%s)\n%s", ind, sens, Stmt(x.Body, ind+"  "))

	case *ast.Instance:
		var sb strings.Builder
		sb.WriteString(ind)
		sb.WriteString(x.ModName)
		if len(x.Params) > 0 {
			sb.WriteString(" #(")
			writeConns(&sb, x.Params)
			sb.WriteString(")")
		}
		sb.WriteByte(' ')
		sb.WriteString(x.Name)
		sb.WriteString(" (")
		writeConns(&sb, x.Conns)
		sb.WriteString(");\n")
		return sb.String()
	}
	return ind + "// <unknown item>\n"
}

func writeConns(sb *strings.Builder, conns []ast.NamedConn) {
	for i, c := range conns {
		if i > 0 {
			sb.WriteString(", ")
		}
		if c.Name != "" {
			sb.WriteByte('.')
			sb.WriteString(c.Name)
			sb.WriteByte('(')
			if c.Expr != nil {
				sb.WriteString(Expr(c.Expr))
			}
			sb.WriteByte(')')
		} else if c.Expr != nil {
			sb.WriteString(Expr(c.Expr))
		}
	}
}

// Stmt renders a procedural statement.
func Stmt(s ast.Stmt, ind string) string {
	switch x := s.(type) {
	case nil:
		return ind + ";\n"
	case *ast.Block:
		var sb strings.Builder
		sb.WriteString(ind)
		sb.WriteString("begin\n")
		for _, st := range x.Stmts {
			sb.WriteString(Stmt(st, ind+"  "))
		}
		sb.WriteString(ind)
		sb.WriteString("end\n")
		return sb.String()
	case *ast.If:
		var sb strings.Builder
		fmt.Fprintf(&sb, "%sif (%s)\n%s", ind, Expr(x.Cond), Stmt(x.Then, ind+"  "))
		if x.Else != nil {
			fmt.Fprintf(&sb, "%selse\n%s", ind, Stmt(x.Else, ind+"  "))
		}
		return sb.String()
	case *ast.Case:
		var sb strings.Builder
		kw := "case"
		if x.Casez {
			kw = "casez"
		}
		fmt.Fprintf(&sb, "%s%s (%s)\n", ind, kw, Expr(x.Subject))
		for _, it := range x.Items {
			if it.Exprs == nil {
				fmt.Fprintf(&sb, "%s  default:\n%s", ind, Stmt(it.Body, ind+"    "))
				continue
			}
			labels := make([]string, len(it.Exprs))
			for i, e := range it.Exprs {
				labels[i] = Expr(e)
			}
			fmt.Fprintf(&sb, "%s  %s:\n%s", ind, strings.Join(labels, ", "), Stmt(it.Body, ind+"    "))
		}
		fmt.Fprintf(&sb, "%sendcase\n", ind)
		return sb.String()
	case *ast.Assign:
		op := "="
		if x.NonBlocking {
			op = "<="
		}
		return fmt.Sprintf("%s%s %s %s;\n", ind, Expr(x.LHS), op, Expr(x.RHS))
	case *ast.SysCall:
		var sb strings.Builder
		sb.WriteString(ind)
		sb.WriteString(x.Name)
		if len(x.Args) > 0 {
			sb.WriteByte('(')
			for i, a := range x.Args {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(Expr(a))
			}
			sb.WriteByte(')')
		}
		sb.WriteString(";\n")
		return sb.String()
	}
	return ind + "// <unknown stmt>\n"
}

var unaryTok = map[ast.UnaryOp]string{
	ast.Neg: "-", ast.LogNot: "!", ast.BitNot: "~",
	ast.RedAnd: "&", ast.RedOr: "|", ast.RedXor: "^",
	ast.RedNand: "~&", ast.RedNor: "~|", ast.RedXnor: "~^",
	ast.Plus: "+",
}

var binaryTok = map[ast.BinaryOp]string{
	ast.Add: "+", ast.Sub: "-", ast.Mul: "*", ast.Div: "/", ast.Mod: "%",
	ast.And: "&", ast.Or: "|", ast.Xor: "^", ast.Xnor: "~^",
	ast.LogAnd: "&&", ast.LogOr: "||",
	ast.Eq: "==", ast.Ne: "!=", ast.Lt: "<", ast.Le: "<=",
	ast.Gt: ">", ast.Ge: ">=",
	ast.Shl: "<<", ast.Shr: ">>", ast.Sshr: ">>>",
}

// Expr renders an expression. Sub-expressions are parenthesized
// conservatively, which preserves semantics without tracking precedence.
func Expr(e ast.Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *ast.Ident:
		return x.Name
	case *ast.Number:
		return number(x)
	case *ast.Unary:
		return unaryTok[x.Op] + "(" + Expr(x.X) + ")"
	case *ast.Binary:
		return "(" + Expr(x.X) + " " + binaryTok[x.Op] + " " + Expr(x.Y) + ")"
	case *ast.Ternary:
		return "(" + Expr(x.Cond) + " ? " + Expr(x.Then) + " : " + Expr(x.Else) + ")"
	case *ast.Index:
		return Expr(x.X) + "[" + Expr(x.Index) + "]"
	case *ast.PartSelect:
		return Expr(x.X) + "[" + Expr(x.MSB) + ":" + Expr(x.LSB) + "]"
	case *ast.Concat:
		parts := make([]string, len(x.Parts))
		for i, p := range x.Parts {
			parts[i] = Expr(p)
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case *ast.Repl:
		return "{" + Expr(x.Count) + "{" + Expr(x.Value) + "}}"
	case *ast.SysFunc:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = Expr(a)
		}
		return x.Name + "(" + strings.Join(args, ", ") + ")"
	}
	return "/*?*/"
}

// number renders a literal. Sized literals print in binary when they
// carry x-bits (casez wildcards map to '?'), otherwise hex/decimal.
func number(n *ast.Number) string {
	if n.Width == 0 {
		return fmt.Sprintf("%d", n.Value)
	}
	sign := ""
	if n.Signed {
		sign = "s"
	}
	if n.XMask != 0 {
		digits := make([]byte, n.Width)
		for i := 0; i < n.Width; i++ {
			bit := uint(n.Width - 1 - i)
			switch {
			case n.XMask>>bit&1 == 1:
				digits[i] = '?'
			case n.Value>>bit&1 == 1:
				digits[i] = '1'
			default:
				digits[i] = '0'
			}
		}
		return fmt.Sprintf("%d'%sb%s", n.Width, sign, digits)
	}
	return fmt.Sprintf("%d'%sh%x", n.Width, sign, n.Value)
}
