// Package ftn implements a front end for the Fortran 90 subset that the
// Compuniformer transformation operates on: free-form source, program and
// subroutine units, declarations with array bounds, DO nests, IF statements,
// assignments, CALL statements (including MPI calls), and PRINT.
//
// The package plays the role of the Nestor framework in the paper: it
// provides a parser, a transformable representation, and an unparser, so the
// transformation stays decoupled from any particular compiler.
package ftn

import "fmt"

// Pos is a position in a source file (1-based line and column).
type Pos struct {
	Line int
	Col  int
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// TokKind enumerates lexical token kinds.
type TokKind int

// Token kinds. Fortran has no reserved words, so keywords are lexed as IDENT
// and recognized contextually by the parser.
const (
	EOF TokKind = iota
	NEWLINE
	IDENT
	INTLIT
	REALLIT
	STRLIT

	LPAREN // (
	RPAREN // )
	COMMA  // ,
	COLON  // :
	DCOLON // ::
	ASSIGN // =
	PLUS   // +
	MINUS  // -
	STAR   // *
	SLASH  // /
	POW    // **
	CONCAT // //

	EQ // == or .eq.
	NE // /= or .ne.
	LT // < or .lt.
	LE // <= or .le.
	GT // > or .gt.
	GE // >= or .ge.

	AND // .and.
	OR  // .or.
	NOT // .not.

	TRUE  // .true.
	FALSE // .false.

	PERCENT   // %  (accepted so the Fig. 3 pseudo-code "ix % 10" parses as mod)
	SEMICOLON // ;
	COMMENT   // whole-line '!' comment (preserved through transformation)
)

var tokNames = map[TokKind]string{
	EOF: "EOF", NEWLINE: "newline", IDENT: "identifier", INTLIT: "integer literal",
	REALLIT: "real literal", STRLIT: "string literal",
	LPAREN: "(", RPAREN: ")", COMMA: ",", COLON: ":", DCOLON: "::", ASSIGN: "=",
	PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/", POW: "**", CONCAT: "//",
	EQ: "==", NE: "/=", LT: "<", LE: "<=", GT: ">", GE: ">=",
	AND: ".and.", OR: ".or.", NOT: ".not.", TRUE: ".true.", FALSE: ".false.",
	PERCENT: "%", SEMICOLON: ";", COMMENT: "comment",
}

// String returns a human-readable name for the token kind.
func (k TokKind) String() string {
	if s, ok := tokNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TokKind(%d)", int(k))
}

// Token is a single lexical token with its source position.
type Token struct {
	Kind TokKind
	Text string // canonical text: identifiers lower-cased, literals verbatim
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case IDENT, INTLIT, REALLIT, STRLIT:
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}

// Error is a front-end diagnostic carrying a source position.
type Error struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...interface{}) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
