// Package token defines the lexical tokens of LiveHDL, the Verilog subset
// understood by this LiveSim reproduction, together with source positions.
//
// The token set matters beyond parsing: LiveParser (Section III-C of the
// paper) decides whether an edit changed *behaviour* by comparing token
// streams with comments and whitespace stripped, so the lexer must classify
// trivia tokens explicitly rather than silently discarding them.
package token

import "fmt"

// Kind enumerates the lexical token kinds of LiveHDL.
type Kind uint8

// Token kinds. Whitespace and comments are not tokens: the lexer skips
// them.
const (
	EOF Kind = iota
	Error
	Ident     // module names, signal names, instance names
	SysIdent  // $signed, $unsigned, $display, $finish, $readmemh
	Number    // 42, 8'hFF, 4'b1010, 'd9
	String    // "..." (used by $display and `include)
	Directive // `define, `ifdef, ... (only before preprocessing)

	// Punctuation and operators.
	LParen   // (
	RParen   // )
	LBrack   // [
	RBrack   // ]
	LBrace   // {
	RBrace   // }
	Comma    // ,
	Semi     // ;
	Colon    // :
	Dot      // .
	Hash     // #
	At       // @
	Question // ?
	Assign   // =
	NbAssign // <=  (context decides less-equal vs non-blocking assign)
	Plus     // +
	Minus    // -
	Star     // *
	Slash    // /
	Percent  // %
	Amp      // &
	Pipe     // |
	Caret    // ^
	Tilde    // ~
	Bang     // !
	Lt       // <
	Gt       // >
	LtEq     // <= (alias of NbAssign; parser disambiguates)
	GtEq     // >=
	EqEq     // ==
	BangEq   // !=
	AmpAmp   // &&
	PipePipe // ||
	Shl      // <<
	Shr      // >>
	Sshr     // >>>

	// Keywords.
	KwModule
	KwEndmodule
	KwInput
	KwOutput
	KwInout
	KwWire
	KwReg
	KwParameter
	KwLocalparam
	KwAssign
	KwAlways
	KwPosedge
	KwNegedge
	KwBegin
	KwEnd
	KwIf
	KwElse
	KwCase
	KwCasez
	KwEndcase
	KwDefault
	KwInteger
	KwGenvar
	KwGenerate
	KwEndgenerate
	KwFor
	KwFunction
	KwEndfunction
	KwSigned

	kindCount
)

var kindNames = [...]string{
	EOF: "EOF", Error: "error", Ident: "identifier", SysIdent: "system identifier",
	Number: "number", String: "string", Directive: "directive",
	LParen: "(", RParen: ")", LBrack: "[", RBrack: "]", LBrace: "{", RBrace: "}",
	Comma: ",", Semi: ";", Colon: ":", Dot: ".", Hash: "#", At: "@",
	Question: "?", Assign: "=", NbAssign: "<=",
	Plus: "+", Minus: "-", Star: "*", Slash: "/", Percent: "%",
	Amp: "&", Pipe: "|", Caret: "^", Tilde: "~", Bang: "!",
	Lt: "<", Gt: ">", LtEq: "<=", GtEq: ">=", EqEq: "==", BangEq: "!=",
	AmpAmp: "&&", PipePipe: "||", Shl: "<<", Shr: ">>", Sshr: ">>>",
	KwModule: "module", KwEndmodule: "endmodule", KwInput: "input",
	KwOutput: "output", KwInout: "inout", KwWire: "wire", KwReg: "reg",
	KwParameter: "parameter", KwLocalparam: "localparam", KwAssign: "assign",
	KwAlways: "always", KwPosedge: "posedge", KwNegedge: "negedge",
	KwBegin: "begin", KwEnd: "end", KwIf: "if", KwElse: "else",
	KwCase: "case", KwCasez: "casez", KwEndcase: "endcase", KwDefault: "default",
	KwInteger: "integer", KwGenvar: "genvar", KwGenerate: "generate",
	KwEndgenerate: "endgenerate", KwFor: "for", KwFunction: "function",
	KwEndfunction: "endfunction", KwSigned: "signed",
}

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Keywords maps reserved words to their kinds.
var Keywords = map[string]Kind{
	"module": KwModule, "endmodule": KwEndmodule,
	"input": KwInput, "output": KwOutput, "inout": KwInout,
	"wire": KwWire, "reg": KwReg,
	"parameter": KwParameter, "localparam": KwLocalparam,
	"assign": KwAssign, "always": KwAlways,
	"posedge": KwPosedge, "negedge": KwNegedge,
	"begin": KwBegin, "end": KwEnd,
	"if": KwIf, "else": KwElse,
	"case": KwCase, "casez": KwCasez, "endcase": KwEndcase, "default": KwDefault,
	"integer": KwInteger, "genvar": KwGenvar,
	"generate": KwGenerate, "endgenerate": KwEndgenerate,
	"for": KwFor, "function": KwFunction, "endfunction": KwEndfunction,
	"signed": KwSigned,
}

// Pos is a byte offset plus 1-based line/column within a source file.
type Pos struct {
	File   string
	Offset int
	Line   int
	Col    int
}

// String formats the position as file:line:col.
func (p Pos) String() string {
	f := p.File
	if f == "" {
		f = "<input>"
	}
	return fmt.Sprintf("%s:%d:%d", f, p.Line, p.Col)
}

// Token is a single lexical token with its source text and position.
type Token struct {
	Kind Kind
	Text string
	Pos  Pos
}

// String formats the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case Ident, Number, String, SysIdent, Directive, Error:
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}
