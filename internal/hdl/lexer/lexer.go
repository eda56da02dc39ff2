// Package lexer tokenizes LiveHDL source text.
//
// The lexer has two modes. The parser uses the default mode, which skips
// whitespace and comments; LiveParser fingerprints that same token stream,
// which is how it tells a comment-only edit from a behavioural one (paper
// Section III-C: "confirm that actual behavior was changed, not just
// comments or spacing"). KeepTrivia mode emits the trivia too, for tools
// that must reproduce the text.
package lexer

import (
	"strings"

	"livesim/internal/hdl/token"
)

// Lexer scans LiveHDL source into tokens.
type Lexer struct {
	src        string
	file       string
	off        int
	line       int
	col        int
	keepTrivia bool
}

// Option configures a Lexer.
type Option func(*Lexer)

// KeepTrivia makes the lexer emit whitespace and comment tokens instead of
// skipping them.
func KeepTrivia() Option { return func(l *Lexer) { l.keepTrivia = true } }

// New returns a Lexer over src. file is used in positions for diagnostics.
func New(file, src string, opts ...Option) *Lexer {
	l := &Lexer{src: src, file: file, line: 1, col: 1}
	for _, o := range opts {
		o(l)
	}
	return l
}

// Tokenize scans the entire input and returns all tokens, ending with EOF.
// The slice is sized from the input up front: the PGAS sources run 3.3 to
// 5.6 bytes per token, and growing a slice of 64-byte tokens by doubling
// used to cost more than the scan itself.
func Tokenize(file, src string, opts ...Option) []token.Token {
	l := New(file, src, opts...)
	toks := make([]token.Token, 0, len(src)/3+16)
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}

func (l *Lexer) pos() token.Pos {
	return token.Pos{File: l.file, Offset: l.off, Line: l.line, Col: l.col}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func isSpace(c byte) bool  { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }
func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isIdent0(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isIdent(c byte) bool  { return isIdent0(c) || isDigit(c) }

// isNumCont reports whether c may continue a Verilog number literal body
// (after a base marker). Underscores are legal separators.
func isNumCont(c byte) bool {
	return isDigit(c) || c == '_' ||
		(c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') ||
		c == 'x' || c == 'X' || c == 'z' || c == 'Z' || c == '?'
}

// Next returns the next token.
func (l *Lexer) Next() token.Token {
	for {
		start := l.pos()
		if l.off >= len(l.src) {
			return token.Token{Kind: token.EOF, Pos: start}
		}
		c := l.peek()

		switch {
		case isSpace(c):
			for l.off < len(l.src) && isSpace(l.peek()) {
				l.advance()
			}
			if l.keepTrivia {
				return l.mk(token.Whitespace, start)
			}
			continue

		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
			if l.keepTrivia {
				return l.mk(token.LineComment, start)
			}
			continue

		case c == '/' && l.peek2() == '*':
			l.advance()
			l.advance()
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
			if l.keepTrivia {
				return l.mk(token.BlockComment, start)
			}
			continue

		case isIdent0(c):
			for l.off < len(l.src) && isIdent(l.peek()) {
				l.advance()
			}
			text := l.src[start.Offset:l.off]
			if k, ok := token.Keywords[text]; ok {
				return token.Token{Kind: k, Text: text, Pos: start}
			}
			return token.Token{Kind: token.Ident, Text: text, Pos: start}

		case c == '$':
			l.advance()
			for l.off < len(l.src) && isIdent(l.peek()) {
				l.advance()
			}
			return l.mk(token.SysIdent, start)

		case c == '`':
			l.advance()
			for l.off < len(l.src) && isIdent(l.peek()) {
				l.advance()
			}
			return l.mk(token.Directive, start)

		case isDigit(c) || c == '\'':
			return l.number(start)

		case c == '"':
			l.advance()
			for l.off < len(l.src) && l.peek() != '"' {
				if l.peek() == '\\' && l.off+1 < len(l.src) {
					l.advance()
				}
				l.advance()
			}
			if l.off < len(l.src) {
				l.advance() // closing quote
			}
			return l.mk(token.String, start)

		default:
			return l.operator(start)
		}
	}
}

func (l *Lexer) mk(k token.Kind, start token.Pos) token.Token {
	return token.Token{Kind: k, Text: l.src[start.Offset:l.off], Pos: start}
}

// number scans decimal literals and Verilog sized/based literals such as
// 8'hFF, 'd42, 4'b1010, 12'o777.
func (l *Lexer) number(start token.Pos) token.Token {
	// Optional size prefix.
	for l.off < len(l.src) && (isDigit(l.peek()) || l.peek() == '_') {
		l.advance()
	}
	if l.peek() == '\'' {
		l.advance()
		if c := l.peek(); c == 's' || c == 'S' {
			l.advance() // signed marker
		}
		if c := l.peek(); strings.IndexByte("bBoOdDhH", c) >= 0 {
			l.advance()
		} else {
			return l.mk(token.Error, start)
		}
		for l.off < len(l.src) && isNumCont(l.peek()) {
			l.advance()
		}
	}
	return l.mk(token.Number, start)
}

func (l *Lexer) operator(start token.Pos) token.Token {
	c := l.advance()
	two := func(next byte, k2 token.Kind, k1 token.Kind) token.Token {
		if l.peek() == next {
			l.advance()
			return l.mk(k2, start)
		}
		return l.mk(k1, start)
	}
	switch c {
	case '(':
		return l.mk(token.LParen, start)
	case ')':
		return l.mk(token.RParen, start)
	case '[':
		return l.mk(token.LBrack, start)
	case ']':
		return l.mk(token.RBrack, start)
	case '{':
		return l.mk(token.LBrace, start)
	case '}':
		return l.mk(token.RBrace, start)
	case ',':
		return l.mk(token.Comma, start)
	case ';':
		return l.mk(token.Semi, start)
	case ':':
		return l.mk(token.Colon, start)
	case '.':
		return l.mk(token.Dot, start)
	case '#':
		return l.mk(token.Hash, start)
	case '@':
		return l.mk(token.At, start)
	case '?':
		return l.mk(token.Question, start)
	case '=':
		return two('=', token.EqEq, token.Assign)
	case '+':
		return l.mk(token.Plus, start)
	case '-':
		return l.mk(token.Minus, start)
	case '*':
		return l.mk(token.Star, start)
	case '/':
		return l.mk(token.Slash, start)
	case '%':
		return l.mk(token.Percent, start)
	case '~':
		return l.mk(token.Tilde, start)
	case '^':
		return l.mk(token.Caret, start)
	case '!':
		return two('=', token.BangEq, token.Bang)
	case '&':
		return two('&', token.AmpAmp, token.Amp)
	case '|':
		return two('|', token.PipePipe, token.Pipe)
	case '<':
		if l.peek() == '<' {
			l.advance()
			return l.mk(token.Shl, start)
		}
		return two('=', token.NbAssign, token.Lt)
	case '>':
		if l.peek() == '>' {
			l.advance()
			if l.peek() == '>' {
				l.advance()
				return l.mk(token.Sshr, start)
			}
			return l.mk(token.Shr, start)
		}
		return two('=', token.GtEq, token.Gt)
	}
	return l.mk(token.Error, start)
}
