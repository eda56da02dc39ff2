// Package parser builds LiveHDL ASTs from token streams.
//
// It is a hand-written recursive-descent parser with precedence climbing
// for expressions, covering the synthesizable Verilog subset the paper's
// PGAS RISC-V benchmark is written in: modules with parameters, vector and
// memory declarations, continuous assigns, always @(posedge)/@(*) blocks
// with if/case, module instantiation, concatenation/replication, part
// selects, and $signed/$unsigned.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"livesim/internal/hdl/ast"
	"livesim/internal/hdl/lexer"
	"livesim/internal/hdl/token"
)

// Error is a parse error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

type parser struct {
	toks []token.Token
	i    int
}

// ParseFile parses a whole (already preprocessed) source file.
func ParseFile(file, src string) (*ast.SourceFile, error) {
	sf, _, err := ParseFileTokens(file, src)
	return sf, err
}

// ParseFileTokens is ParseFile that also returns, for each module in order,
// the tokens it was parsed from (`module` through `endmodule`, slices of
// the file's one token stream), so LiveParser can fingerprint a module
// without lexing its text again.
func ParseFileTokens(file, src string) (*ast.SourceFile, [][]token.Token, error) {
	p := &parser{toks: lexer.Tokenize(file, src)}
	sf := &ast.SourceFile{Name: file}
	var spans [][]token.Token
	for p.cur().Kind != token.EOF {
		start := p.i
		m, err := p.parseModule()
		if err != nil {
			return nil, nil, err
		}
		sf.Modules = append(sf.Modules, m)
		spans = append(spans, p.toks[start:p.i])
	}
	return sf, spans, nil
}

// ParseExpr parses a standalone expression. The elab and printer tests
// build their expressions with it.
func ParseExpr(src string) (ast.Expr, error) {
	p := &parser{toks: lexer.Tokenize("", src)}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind != token.EOF {
		return nil, p.errf("trailing input after expression: %s", p.cur())
	}
	return e, nil
}

func (p *parser) cur() token.Token { return p.toks[p.i] }
func (p *parser) peek() token.Token {
	if p.i+1 < len(p.toks) {
		return p.toks[p.i+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) next() token.Token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

func (p *parser) accept(k token.Kind) bool {
	if p.cur().Kind == k {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k token.Kind) (token.Token, error) {
	if p.cur().Kind != k {
		return token.Token{}, p.errf("expected %s, found %s", k, p.cur())
	}
	return p.next(), nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

// ---------------------------------------------------------------- modules

func (p *parser) parseModule() (*ast.Module, error) {
	kw, err := p.expect(token.KwModule)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(token.Ident)
	if err != nil {
		return nil, err
	}
	m := &ast.Module{Name: name.Text, Pos: kw.Pos}

	// Parameter list: #(parameter A = 1, parameter B = 2)
	if p.accept(token.Hash) {
		if _, err := p.expect(token.LParen); err != nil {
			return nil, err
		}
		for {
			p.accept(token.KwParameter) // keyword optional after first
			pn, err := p.expect(token.Ident)
			if err != nil {
				return nil, err
			}
			prm := &ast.Param{Name: pn.Text, Pos: pn.Pos}
			if p.accept(token.Assign) {
				prm.Default, err = p.parseExpr()
				if err != nil {
					return nil, err
				}
			}
			m.Params = append(m.Params, prm)
			if !p.accept(token.Comma) {
				break
			}
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
	}

	// Port list (ANSI style only).
	if p.accept(token.LParen) {
		if !p.accept(token.RParen) {
			var last ast.Port
			for {
				port, err := p.parsePort(&last)
				if err != nil {
					return nil, err
				}
				m.Ports = append(m.Ports, port)
				last = *port
				if !p.accept(token.Comma) {
					break
				}
			}
			if _, err := p.expect(token.RParen); err != nil {
				return nil, err
			}
		}
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}

	for p.cur().Kind != token.KwEndmodule {
		if p.cur().Kind == token.EOF {
			return nil, p.errf("missing endmodule for module %s", m.Name)
		}
		items, err := p.parseItem()
		if err != nil {
			return nil, err
		}
		m.Items = append(m.Items, items...)
	}
	end := p.next() // endmodule
	m.End = token.Pos{File: end.Pos.File, Offset: end.Pos.Offset + len(end.Text),
		Line: end.Pos.Line, Col: end.Pos.Col + len(end.Text)}
	return m, nil
}

// parsePort parses one ANSI port declaration; when direction/width are
// omitted they are inherited from the previous port (Verilog list style).
func (p *parser) parsePort(last *ast.Port) (*ast.Port, error) {
	port := &ast.Port{Pos: p.cur().Pos}
	switch p.cur().Kind {
	case token.KwInput:
		p.next()
		port.Dir = ast.Input
	case token.KwOutput:
		p.next()
		port.Dir = ast.Output
	case token.KwInout:
		p.next()
		port.Dir = ast.Inout
	case token.Ident:
		// Inherit direction and range from previous port.
		port.Dir = last.Dir
		port.Range = last.Range
		port.IsReg = last.IsReg
		port.Signed = last.Signed
		n := p.next()
		port.Name = n.Text
		return port, nil
	default:
		return nil, p.errf("expected port declaration, found %s", p.cur())
	}
	if p.accept(token.KwReg) {
		port.IsReg = true
	} else {
		p.accept(token.KwWire)
	}
	if p.accept(token.KwSigned) {
		port.Signed = true
	}
	var err error
	port.Range, err = p.parseOptRange()
	if err != nil {
		return nil, err
	}
	n, err := p.expect(token.Ident)
	if err != nil {
		return nil, err
	}
	port.Name = n.Text
	return port, nil
}

func (p *parser) parseOptRange() (*ast.Range, error) {
	if p.cur().Kind != token.LBrack {
		return nil, nil
	}
	p.next()
	msb, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Colon); err != nil {
		return nil, err
	}
	lsb, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RBrack); err != nil {
		return nil, err
	}
	return &ast.Range{MSB: msb, LSB: lsb}, nil
}

// ---------------------------------------------------------------- items

func (p *parser) parseItem() ([]ast.Item, error) {
	one := func(it ast.Item, err error) ([]ast.Item, error) {
		if err != nil {
			return nil, err
		}
		return []ast.Item{it}, nil
	}
	switch p.cur().Kind {
	case token.KwWire, token.KwReg, token.KwInteger:
		return p.parseNetDecl()
	case token.KwParameter, token.KwLocalparam:
		return one(p.parseLocalParam())
	case token.KwAssign:
		return one(p.parseContAssign())
	case token.KwAlways:
		return one(p.parseAlways())
	case token.Ident:
		return one(p.parseInstance())
	case token.Semi:
		p.next()
		return nil, nil
	default:
		return nil, p.errf("unexpected %s at module level", p.cur())
	}
}

// parseNetDecl handles: wire/reg/integer [signed] [range] name [array] [= init] {, name ...} ;
// Multi-name declarations are returned as the first decl; the rest are
// queued by rewriting — to keep the interface simple we expand them into a
// synthetic item list via a small buffer.
func (p *parser) parseNetDecl() ([]ast.Item, error) {
	kindTok := p.next()
	var kind ast.NetKind
	switch kindTok.Kind {
	case token.KwWire:
		kind = ast.Wire
	case token.KwReg:
		kind = ast.Reg
	case token.KwInteger:
		kind = ast.Integer
	}
	signed := p.accept(token.KwSigned)
	rng, err := p.parseOptRange()
	if err != nil {
		return nil, err
	}
	var decls []ast.Item
	for {
		n, err := p.expect(token.Ident)
		if err != nil {
			return nil, err
		}
		d := &ast.NetDecl{Kind: kind, Name: n.Text, Range: rng, Signed: signed, Pos: n.Pos}
		d.Array, err = p.parseOptRange()
		if err != nil {
			return nil, err
		}
		if p.accept(token.Assign) {
			d.Init, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		decls = append(decls, d)
		if !p.accept(token.Comma) {
			break
		}
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	return decls, nil
}

func (p *parser) parseLocalParam() (ast.Item, error) {
	p.next() // parameter | localparam
	n, err := p.expect(token.Ident)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Assign); err != nil {
		return nil, err
	}
	v, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	return &ast.LocalParam{Name: n.Text, Value: v, Pos: n.Pos}, nil
}

func (p *parser) parseContAssign() (ast.Item, error) {
	kw := p.next() // assign
	lhs, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Assign); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	return &ast.ContAssign{LHS: lhs, RHS: rhs, Pos: kw.Pos}, nil
}

func (p *parser) parseAlways() (ast.Item, error) {
	kw := p.next() // always
	if _, err := p.expect(token.At); err != nil {
		return nil, err
	}
	blk := &ast.AlwaysBlock{Pos: kw.Pos}
	if p.accept(token.Star) {
		blk.Edge = ast.Comb
	} else {
		if _, err := p.expect(token.LParen); err != nil {
			return nil, err
		}
		switch p.cur().Kind {
		case token.Star:
			p.next()
			blk.Edge = ast.Comb
		case token.KwPosedge, token.KwNegedge:
			if p.next().Kind == token.KwPosedge {
				blk.Edge = ast.Posedge
			} else {
				blk.Edge = ast.Negedge
			}
			clk, err := p.expect(token.Ident)
			if err != nil {
				return nil, err
			}
			blk.Clock = clk.Text
		default:
			// Plain sensitivity list: treat as combinational.
			blk.Edge = ast.Comb
			for p.cur().Kind == token.Ident {
				p.next()
				if !p.accept(token.Comma) && p.cur().Kind == token.Ident {
					break
				}
			}
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	blk.Body = body
	return blk, nil
}

func (p *parser) parseInstance() (ast.Item, error) {
	mod := p.next() // module name
	inst := &ast.Instance{ModName: mod.Text, Pos: mod.Pos}
	if p.accept(token.Hash) {
		if _, err := p.expect(token.LParen); err != nil {
			return nil, err
		}
		conns, err := p.parseConnList()
		if err != nil {
			return nil, err
		}
		inst.Params = conns
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
	}
	n, err := p.expect(token.Ident)
	if err != nil {
		return nil, err
	}
	inst.Name = n.Text
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	if p.cur().Kind != token.RParen {
		inst.Conns, err = p.parseConnList()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	return inst, nil
}

func (p *parser) parseConnList() ([]ast.NamedConn, error) {
	var conns []ast.NamedConn
	for {
		var c ast.NamedConn
		c.Pos = p.cur().Pos
		if p.accept(token.Dot) {
			n, err := p.expect(token.Ident)
			if err != nil {
				return nil, err
			}
			c.Name = n.Text
			if _, err := p.expect(token.LParen); err != nil {
				return nil, err
			}
			if p.cur().Kind != token.RParen {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				c.Expr = e
			}
			if _, err := p.expect(token.RParen); err != nil {
				return nil, err
			}
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			c.Expr = e
		}
		conns = append(conns, c)
		if !p.accept(token.Comma) {
			return conns, nil
		}
	}
}

// ---------------------------------------------------------------- stmts

func (p *parser) parseStmt() (ast.Stmt, error) {
	switch p.cur().Kind {
	case token.KwBegin:
		pos := p.next().Pos
		blk := &ast.Block{Pos: pos}
		for !p.accept(token.KwEnd) {
			if p.cur().Kind == token.EOF {
				return nil, p.errf("missing end")
			}
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			blk.Stmts = append(blk.Stmts, s)
		}
		return blk, nil

	case token.KwIf:
		pos := p.next().Pos
		if _, err := p.expect(token.LParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		node := &ast.If{Cond: cond, Then: then, Pos: pos}
		if p.accept(token.KwElse) {
			node.Else, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
		}
		return node, nil

	case token.KwCase, token.KwCasez:
		return p.parseCase()

	case token.SysIdent:
		t := p.next()
		sc := &ast.SysCall{Name: t.Text, Pos: t.Pos}
		if p.accept(token.LParen) {
			for p.cur().Kind != token.RParen {
				if p.cur().Kind == token.String {
					s := p.next()
					sc.Args = append(sc.Args, &ast.Ident{Name: s.Text, Pos: s.Pos})
				} else {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					sc.Args = append(sc.Args, e)
				}
				if !p.accept(token.Comma) {
					break
				}
			}
			if _, err := p.expect(token.RParen); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		return sc, nil

	case token.Semi:
		p.next()
		return &ast.Block{}, nil

	default:
		return p.parseAssignStmt()
	}
}

func (p *parser) parseAssignStmt() (ast.Stmt, error) {
	pos := p.cur().Pos
	lhs, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	node := &ast.Assign{LHS: lhs, Pos: pos}
	switch p.cur().Kind {
	case token.Assign:
		p.next()
	case token.NbAssign:
		p.next()
		node.NonBlocking = true
	default:
		return nil, p.errf("expected = or <= in assignment, found %s", p.cur())
	}
	node.RHS, err = p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	return node, nil
}

func (p *parser) parseCase() (ast.Stmt, error) {
	kw := p.next()
	node := &ast.Case{Casez: kw.Kind == token.KwCasez, Pos: kw.Pos}
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	var err error
	node.Subject, err = p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	for !p.accept(token.KwEndcase) {
		if p.cur().Kind == token.EOF {
			return nil, p.errf("missing endcase")
		}
		var item ast.CaseItem
		if p.accept(token.KwDefault) {
			p.accept(token.Colon)
		} else {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				item.Exprs = append(item.Exprs, e)
				if !p.accept(token.Comma) {
					break
				}
			}
			if _, err := p.expect(token.Colon); err != nil {
				return nil, err
			}
		}
		item.Body, err = p.parseStmt()
		if err != nil {
			return nil, err
		}
		node.Items = append(node.Items, item)
	}
	return node, nil
}

// ---------------------------------------------------------------- exprs

// Binary operator precedence, higher binds tighter. Mirrors Verilog.
func binPrec(k token.Kind) int {
	switch k {
	case token.PipePipe:
		return 1
	case token.AmpAmp:
		return 2
	case token.Pipe:
		return 3
	case token.Caret:
		return 4
	case token.Amp:
		return 5
	case token.EqEq, token.BangEq:
		return 6
	case token.Lt, token.NbAssign, token.Gt, token.GtEq:
		return 7
	case token.Shl, token.Shr, token.Sshr:
		return 8
	case token.Plus, token.Minus:
		return 9
	case token.Star, token.Slash, token.Percent:
		return 10
	default:
		return 0
	}
}

func binOp(k token.Kind) ast.BinaryOp {
	switch k {
	case token.PipePipe:
		return ast.LogOr
	case token.AmpAmp:
		return ast.LogAnd
	case token.Pipe:
		return ast.Or
	case token.Caret:
		return ast.Xor
	case token.Amp:
		return ast.And
	case token.EqEq:
		return ast.Eq
	case token.BangEq:
		return ast.Ne
	case token.Lt:
		return ast.Lt
	case token.NbAssign:
		return ast.Le
	case token.Gt:
		return ast.Gt
	case token.GtEq:
		return ast.Ge
	case token.Shl:
		return ast.Shl
	case token.Shr:
		return ast.Shr
	case token.Sshr:
		return ast.Sshr
	case token.Plus:
		return ast.Add
	case token.Minus:
		return ast.Sub
	case token.Star:
		return ast.Mul
	case token.Slash:
		return ast.Div
	default:
		return ast.Mod
	}
}

func (p *parser) parseExpr() (ast.Expr, error) {
	return p.parseTernary()
}

func (p *parser) parseTernary() (ast.Expr, error) {
	cond, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if !p.accept(token.Question) {
		return cond, nil
	}
	then, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Colon); err != nil {
		return nil, err
	}
	els, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &ast.Ternary{Cond: cond, Then: then, Else: els}, nil
}

func (p *parser) parseBinary(minPrec int) (ast.Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		prec := binPrec(p.cur().Kind)
		if prec < minPrec || prec == 0 {
			return lhs, nil
		}
		opTok := p.next()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &ast.Binary{Op: binOp(opTok.Kind), X: lhs, Y: rhs, Pos: opTok.Pos}
	}
}

func (p *parser) parseUnary() (ast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case token.Minus:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: ast.Neg, X: x, Pos: t.Pos}, nil
	case token.Plus:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: ast.Plus, X: x, Pos: t.Pos}, nil
	case token.Bang:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: ast.LogNot, X: x, Pos: t.Pos}, nil
	case token.Tilde:
		p.next()
		// ~& ~| ~^ reduction operators.
		switch p.cur().Kind {
		case token.Amp:
			p.next()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &ast.Unary{Op: ast.RedNand, X: x, Pos: t.Pos}, nil
		case token.Pipe:
			p.next()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &ast.Unary{Op: ast.RedNor, X: x, Pos: t.Pos}, nil
		case token.Caret:
			p.next()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &ast.Unary{Op: ast.RedXnor, X: x, Pos: t.Pos}, nil
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: ast.BitNot, X: x, Pos: t.Pos}, nil
	case token.Amp, token.Pipe, token.Caret:
		// Reduction operator in prefix position.
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		op := ast.RedAnd
		if t.Kind == token.Pipe {
			op = ast.RedOr
		} else if t.Kind == token.Caret {
			op = ast.RedXor
		}
		return &ast.Unary{Op: op, X: x, Pos: t.Pos}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (ast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case token.Number:
		p.next()
		return parseNumber(t)

	case token.Ident:
		p.next()
		var e ast.Expr = &ast.Ident{Name: t.Text, Pos: t.Pos}
		return p.parseSelects(e)

	case token.SysIdent:
		p.next()
		sf := &ast.SysFunc{Name: t.Text, Pos: t.Pos}
		if _, err := p.expect(token.LParen); err != nil {
			return nil, err
		}
		for p.cur().Kind != token.RParen {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sf.Args = append(sf.Args, a)
			if !p.accept(token.Comma) {
				break
			}
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		return sf, nil

	case token.LParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		return p.parseSelects(e)

	case token.LBrace:
		p.next()
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		// {N{x}} replication?
		if p.cur().Kind == token.LBrace {
			p.next()
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RBrace); err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RBrace); err != nil {
				return nil, err
			}
			return &ast.Repl{Count: first, Value: val, Pos: t.Pos}, nil
		}
		cat := &ast.Concat{Parts: []ast.Expr{first}, Pos: t.Pos}
		for p.accept(token.Comma) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			cat.Parts = append(cat.Parts, e)
		}
		if _, err := p.expect(token.RBrace); err != nil {
			return nil, err
		}
		return cat, nil
	}
	return nil, p.errf("expected expression, found %s", t)
}

// parseSelects parses trailing [i] and [msb:lsb] selects.
func (p *parser) parseSelects(e ast.Expr) (ast.Expr, error) {
	for p.cur().Kind == token.LBrack {
		pos := p.next().Pos
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.accept(token.Colon) {
			lsb, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RBrack); err != nil {
				return nil, err
			}
			e = &ast.PartSelect{X: e, MSB: first, LSB: lsb, Pos: pos}
			continue
		}
		if _, err := p.expect(token.RBrack); err != nil {
			return nil, err
		}
		e = &ast.Index{X: e, Index: first, Pos: pos}
	}
	return e, nil
}

// parseNumber decodes Verilog literals: 42, 8'hFF, 4'b10x0, 'd9, 1'sb1.
func parseNumber(t token.Token) (ast.Expr, error) {
	text := strings.ReplaceAll(t.Text, "_", "")
	n := &ast.Number{Pos: t.Pos}
	q := strings.IndexByte(text, '\'')
	if q < 0 {
		v, err := strconv.ParseUint(text, 10, 64)
		if err != nil {
			return nil, &Error{Pos: t.Pos, Msg: "bad number " + t.Text}
		}
		n.Value = v
		n.Width = 0 // unsized
		return n, nil
	}
	width := 0
	if q > 0 {
		w, err := strconv.Atoi(text[:q])
		if err != nil || w <= 0 || w > 64 {
			return nil, &Error{Pos: t.Pos, Msg: "bad literal width in " + t.Text}
		}
		width = w
	}
	rest := text[q+1:]
	if len(rest) > 0 && (rest[0] == 's' || rest[0] == 'S') {
		n.Signed = true
		rest = rest[1:]
	}
	if len(rest) == 0 {
		return nil, &Error{Pos: t.Pos, Msg: "bad literal " + t.Text}
	}
	base := 10
	switch rest[0] {
	case 'b', 'B':
		base = 2
	case 'o', 'O':
		base = 8
	case 'd', 'D':
		base = 10
	case 'h', 'H':
		base = 16
	default:
		return nil, &Error{Pos: t.Pos, Msg: "bad literal base in " + t.Text}
	}
	digits := rest[1:]
	bitsPer := map[int]int{2: 1, 8: 3, 16: 4}[base]
	var val, xmask uint64
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		isX := c == 'x' || c == 'X' || c == 'z' || c == 'Z' || c == '?'
		if base == 10 {
			if isX {
				return nil, &Error{Pos: t.Pos, Msg: "x/z not allowed in decimal literal " + t.Text}
			}
			if c < '0' || c > '9' {
				return nil, &Error{Pos: t.Pos, Msg: "bad digit in " + t.Text}
			}
			val = val*10 + uint64(c-'0')
			continue
		}
		var d uint64
		switch {
		case isX:
			d = 0
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return nil, &Error{Pos: t.Pos, Msg: "bad digit in " + t.Text}
		}
		if d >= uint64(base) {
			return nil, &Error{Pos: t.Pos, Msg: "digit out of range in " + t.Text}
		}
		val = val<<uint(bitsPer) | d
		xmask <<= uint(bitsPer)
		if isX {
			xmask |= (1 << uint(bitsPer)) - 1
		}
	}
	if width == 0 {
		width = 32
	}
	if width < 64 {
		val &= (1 << uint(width)) - 1
		xmask &= (1 << uint(width)) - 1
	}
	n.Value = val
	n.Width = width
	n.XMask = xmask
	return n, nil
}
