package lexer

import (
	"testing"
	"testing/quick"

	"livesim/internal/hdl/token"
)

func kinds(toks []token.Token) []token.Kind {
	ks := make([]token.Kind, len(toks))
	for i, t := range toks {
		ks[i] = t.Kind
	}
	return ks
}

// sameTokens compares two default-mode token streams by kind and text,
// ignoring positions.
func sameTokens(a, b []token.Token) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Text != b[i].Text {
			return false
		}
	}
	return true
}

func TestTokenizeModuleHeader(t *testing.T) {
	src := "module adder #(parameter W = 8) (input [W-1:0] a, output [W-1:0] sum);"
	toks := Tokenize("t.v", src)
	want := []token.Kind{
		token.KwModule, token.Ident, token.Hash, token.LParen,
		token.KwParameter, token.Ident, token.Assign, token.Number,
		token.RParen, token.LParen,
		token.KwInput, token.LBrack, token.Ident, token.Minus, token.Number,
		token.Colon, token.Number, token.RBrack, token.Ident, token.Comma,
		token.KwOutput, token.LBrack, token.Ident, token.Minus, token.Number,
		token.Colon, token.Number, token.RBrack, token.Ident,
		token.RParen, token.Semi, token.EOF,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v want %v (text %q)", i, got[i], want[i], toks[i].Text)
		}
	}
}

func TestNumberLiterals(t *testing.T) {
	cases := []string{"42", "8'hFF", "4'b1010", "12'o777", "'d42", "64'hdead_beef_cafe_f00d", "1'sb1", "8'hx"}
	for _, src := range cases {
		toks := Tokenize("", src)
		if len(toks) != 2 || toks[0].Kind != token.Number {
			t.Errorf("%q: got %v, want single Number", src, toks)
		}
		if toks[0].Text != src {
			t.Errorf("%q: text %q", src, toks[0].Text)
		}
	}
}

func TestOperators(t *testing.T) {
	src := "<= < << >= > >> >>> == = != ! && & || | ^ ~ ? :"
	want := []token.Kind{
		token.NbAssign, token.Lt, token.Shl, token.GtEq, token.Gt, token.Shr,
		token.Sshr, token.EqEq, token.Assign, token.BangEq, token.Bang,
		token.AmpAmp, token.Amp, token.PipePipe, token.Pipe, token.Caret,
		token.Tilde, token.Question, token.Colon, token.EOF,
	}
	got := kinds(Tokenize("", src))
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestCommentsSkippedByDefault(t *testing.T) {
	src := "a // line\n/* block\nspanning */ b"
	toks := Tokenize("", src)
	if len(toks) != 3 || toks[0].Text != "a" || toks[1].Text != "b" {
		t.Fatalf("got %v", toks)
	}
}

func TestKeepTrivia(t *testing.T) {
	src := "a /* c */ b"
	toks := Tokenize("", src, KeepTrivia())
	want := []token.Kind{token.Ident, token.Whitespace, token.BlockComment,
		token.Whitespace, token.Ident, token.EOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if toks[2].Text != "/* c */" {
		t.Errorf("comment text %q", toks[2].Text)
	}
}

func TestPositions(t *testing.T) {
	src := "ab\n cd"
	toks := Tokenize("f.v", src)
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("first token pos %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 2 {
		t.Errorf("second token pos %v", toks[1].Pos)
	}
	if got := toks[1].Pos.String(); got != "f.v:2:2" {
		t.Errorf("pos string %q", got)
	}
}

func TestDirectiveAndSysIdent(t *testing.T) {
	toks := Tokenize("", "`define FOO $display(\"hi\")")
	want := []token.Kind{token.Directive, token.Ident, token.SysIdent,
		token.LParen, token.String, token.RParen, token.EOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if toks[0].Text != "`define" || toks[2].Text != "$display" {
		t.Errorf("texts %q %q", toks[0].Text, toks[2].Text)
	}
}

func TestStringEscapes(t *testing.T) {
	toks := Tokenize("", `"a\"b" x`)
	if toks[0].Kind != token.String || toks[0].Text != `"a\"b"` {
		t.Fatalf("got %v", toks[0])
	}
	if toks[1].Text != "x" {
		t.Fatalf("got %v", toks[1])
	}
}

func TestErrorToken(t *testing.T) {
	toks := Tokenize("", "\x01")
	if toks[0].Kind != token.Error {
		t.Fatalf("got %v", toks[0])
	}
}

func TestUnterminatedBlockComment(t *testing.T) {
	toks := Tokenize("", "a /* never ends")
	if len(toks) != 2 || toks[0].Text != "a" || toks[1].Kind != token.EOF {
		t.Fatalf("got %v", toks)
	}
}

// Property: lexing is insensitive to surrounding whitespace, and the
// concatenation of KeepTrivia token texts reconstructs the input exactly.
func TestTriviaRoundTripProperty(t *testing.T) {
	f := func(seed uint32) bool {
		src := genSource(seed)
		var rebuilt string
		for _, tok := range Tokenize("", src, KeepTrivia()) {
			rebuilt += tok.Text
		}
		if rebuilt != src {
			return false
		}
		return sameTokens(Tokenize("", src), Tokenize("", "  "+src+"\t// tail\n"))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// genSource builds a small pseudo-random LiveHDL fragment from a seed.
func genSource(seed uint32) string {
	frags := []string{
		"assign x = a + b;", "reg [7:0] r;", "wire w;", "if (a) y = 1; else y = 0;",
		"always @(posedge clk) q <= d;", "// comment\n", "/* block */",
		"mod #(.W(8)) u0 (.a(a), .b(b));", "case (s) 2'b00: o = a; default: o = b; endcase",
		" ", "\n", "\t",
	}
	s := ""
	x := seed
	for i := 0; i < 8; i++ {
		x = x*1664525 + 1013904223
		s += frags[x%uint32(len(frags))]
	}
	return s
}
