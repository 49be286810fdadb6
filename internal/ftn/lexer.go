package ftn

import "strings"

// Lexer converts free-form Fortran source into a token stream. It lower-cases
// identifiers (Fortran is case-insensitive), strips '!' comments, joins '&'
// continuation lines, and turns line breaks into NEWLINE tokens (the
// statement separator, as is ';').
type Lexer struct {
	src     string
	pos     int // byte offset
	line    int
	col     int
	toks    []Token
	errors  []*Error
	pending *Token // a COMMENT token produced inside blank-skipping
}

// NewLexer returns a lexer over src. The token slice is sized from the
// source: generated kernels average about 3 bytes per token, so one
// allocation usually holds them all.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1, toks: make([]Token, 0, len(src)/3+16)}
}

// Lex tokenizes the whole input. It returns the token slice (always
// terminated by EOF) and the first error encountered, if any.
func Lex(src string) ([]Token, error) {
	lx := NewLexer(src)
	toks := lx.Run()
	if len(lx.errors) > 0 {
		return toks, lx.errors[0]
	}
	return toks, nil
}

// Run tokenizes the whole input and returns the tokens.
func (lx *Lexer) Run() []Token {
	for {
		t := lx.next()
		lx.toks = append(lx.toks, t)
		if t.Kind == EOF {
			break
		}
	}
	return lx.collapseNewlines(lx.toks)
}

// collapseNewlines merges runs of NEWLINE tokens and drops leading ones.
func (lx *Lexer) collapseNewlines(in []Token) []Token {
	out := in[:0]
	for _, t := range in {
		if t.Kind == NEWLINE {
			if len(out) == 0 || out[len(out)-1].Kind == NEWLINE {
				continue
			}
		}
		out = append(out, t)
	}
	return out
}

func (lx *Lexer) errorf(pos Pos, format string, args ...interface{}) {
	lx.errors = append(lx.errors, errf(pos, format, args...))
}

func (lx *Lexer) at() Pos { return Pos{Line: lx.line, Col: lx.col} }

func (lx *Lexer) peekByte() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peekByteAt(off int) byte {
	if lx.pos+off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+off]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

// skipBlanksAndComments consumes spaces, tabs, '!' comments and '&'
// continuations. It returns true when it consumed a line break that should
// yield a NEWLINE token (i.e., not a continuation).
func (lx *Lexer) skipBlanksAndComments() bool {
	for lx.pos < len(lx.src) {
		c := lx.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			lx.advance()
		case c == '!':
			start := lx.pos
			startCol := lx.col
			startPos := lx.at()
			for lx.pos < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
			text := strings.TrimRight(lx.src[start:lx.pos], " \t\r")
			// Only whole-line comments (nothing but blanks before '!')
			// are preserved as COMMENT tokens; trailing comments are dropped.
			if lx.lineBlankBefore(startCol) {
				lx.pending = &Token{Kind: COMMENT, Text: text, Pos: startPos}
				return false
			}
		case c == '&':
			// Continuation: consume '&', optional blanks/comment, then the
			// newline, and keep going on the next line without emitting
			// NEWLINE. A leading '&' on the continued line is consumed too.
			lx.advance()
			for lx.pos < len(lx.src) && lx.peekByte() != '\n' {
				b := lx.peekByte()
				if b == ' ' || b == '\t' || b == '\r' {
					lx.advance()
					continue
				}
				if b == '!' {
					for lx.pos < len(lx.src) && lx.peekByte() != '\n' {
						lx.advance()
					}
					break
				}
				lx.errorf(lx.at(), "unexpected %q after continuation '&'", string(b))
				lx.advance()
			}
			if lx.pos < len(lx.src) {
				lx.advance() // the newline
			}
			// Skip blanks at start of continued line and an optional '&'.
			for lx.pos < len(lx.src) {
				b := lx.peekByte()
				if b == ' ' || b == '\t' || b == '\r' {
					lx.advance()
				} else {
					break
				}
			}
			if lx.peekByte() == '&' {
				lx.advance()
			}
		case c == '\n':
			lx.advance()
			return true
		default:
			return false
		}
	}
	return false
}

// lineBlankBefore reports whether everything before column col on the
// current line is whitespace.
func (lx *Lexer) lineBlankBefore(col int) bool {
	// Walk backwards from lx.pos over the current line.
	i := lx.pos - (lx.col - 1)
	end := i + col - 1
	if i < 0 || end > len(lx.src) {
		return false
	}
	for ; i < end; i++ {
		if lx.src[i] != ' ' && lx.src[i] != '\t' {
			return false
		}
	}
	return true
}

// Names are ASCII: a byte of a multi-byte character is no letter, so the
// printer writes back every name the lexer accepts.
func isLetter(c byte) bool { return 'a' <= c|0x20 && c|0x20 <= 'z' }

func isIdentStart(c byte) bool { return c == '_' || isLetter(c) }

func isIdentPart(c byte) bool { return c == '_' || isLetter(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next scans and returns the next token.
func (lx *Lexer) next() Token {
	if lx.skipBlanksAndComments() {
		return Token{Kind: NEWLINE, Pos: lx.at()}
	}
	if lx.pending != nil {
		t := *lx.pending
		lx.pending = nil
		return t
	}
	pos := lx.at()
	if lx.pos >= len(lx.src) {
		return Token{Kind: EOF, Pos: pos}
	}
	c := lx.peekByte()
	switch {
	case isIdentStart(c):
		return lx.lexIdent(pos)
	case isDigit(c):
		return lx.lexNumber(pos)
	case c == '.':
		// Either a dot-operator (.and.) or a real literal (.5).
		if isDigit(lx.peekByteAt(1)) {
			return lx.lexNumber(pos)
		}
		return lx.lexDotWord(pos)
	case c == '\'' || c == '"':
		return lx.lexString(pos, c)
	}
	lx.advance()
	mk := func(k TokKind, text string) Token { return Token{Kind: k, Text: text, Pos: pos} }
	switch c {
	case '(':
		return mk(LPAREN, "(")
	case ')':
		return mk(RPAREN, ")")
	case ',':
		return mk(COMMA, ",")
	case ';':
		return mk(SEMICOLON, ";")
	case '%':
		return mk(PERCENT, "%")
	case ':':
		if lx.peekByte() == ':' {
			lx.advance()
			return mk(DCOLON, "::")
		}
		return mk(COLON, ":")
	case '=':
		if lx.peekByte() == '=' {
			lx.advance()
			return mk(EQ, "==")
		}
		return mk(ASSIGN, "=")
	case '+':
		return mk(PLUS, "+")
	case '-':
		return mk(MINUS, "-")
	case '*':
		if lx.peekByte() == '*' {
			lx.advance()
			return mk(POW, "**")
		}
		return mk(STAR, "*")
	case '/':
		if lx.peekByte() == '=' {
			lx.advance()
			return mk(NE, "/=")
		}
		if lx.peekByte() == '/' {
			lx.advance()
			return mk(CONCAT, "//")
		}
		return mk(SLASH, "/")
	case '<':
		if lx.peekByte() == '=' {
			lx.advance()
			return mk(LE, "<=")
		}
		return mk(LT, "<")
	case '>':
		if lx.peekByte() == '=' {
			lx.advance()
			return mk(GE, ">=")
		}
		return mk(GT, ">")
	}
	if c >= 0x80 {
		lx.errorf(pos, "unexpected byte %#x outside a string or comment (names are ASCII)", c)
		for lx.pos < len(lx.src) && lx.peekByte() >= 0x80 {
			lx.advance() // the rest of a multi-byte character: one error
		}
	} else {
		lx.errorf(pos, "unexpected character %q", string(c))
	}
	return lx.next()
}

func (lx *Lexer) lexIdent(pos Pos) Token {
	start := lx.pos
	for lx.pos < len(lx.src) && isIdentPart(lx.peekByte()) {
		lx.advance()
	}
	text := strings.ToLower(lx.src[start:lx.pos])
	return Token{Kind: IDENT, Text: text, Pos: pos}
}

func (lx *Lexer) lexNumber(pos Pos) Token {
	start := lx.pos
	isReal := false
	for lx.pos < len(lx.src) && isDigit(lx.peekByte()) {
		lx.advance()
	}
	if lx.peekByte() == '.' {
		// Careful: "1." followed by a dot-op like "1..and." cannot occur in
		// our subset, but "1.eq.2" can in F77 style. Treat '.' + letter +
		// eventual '.' as a dot operator only for known operator words.
		if !lx.dotOpFollows(lx.pos) {
			isReal = true
			lx.advance()
			for lx.pos < len(lx.src) && isDigit(lx.peekByte()) {
				lx.advance()
			}
		}
	}
	if b := lx.peekByte(); b == 'e' || b == 'E' || b == 'd' || b == 'D' {
		// Exponent part; require a digit (with optional sign) after.
		save, saveLine, saveCol := lx.pos, lx.line, lx.col
		lx.advance()
		if b2 := lx.peekByte(); b2 == '+' || b2 == '-' {
			lx.advance()
		}
		if isDigit(lx.peekByte()) {
			isReal = true
			for lx.pos < len(lx.src) && isDigit(lx.peekByte()) {
				lx.advance()
			}
		} else {
			lx.pos, lx.line, lx.col = save, saveLine, saveCol
		}
	}
	text := strings.ToLower(lx.src[start:lx.pos])
	if isReal {
		text = strings.Replace(text, "d", "e", 1)
		return Token{Kind: REALLIT, Text: text, Pos: pos}
	}
	return Token{Kind: INTLIT, Text: text, Pos: pos}
}

// dotOpFollows reports whether the text at offset i spells a dot operator
// such as ".eq." or ".and.".
func (lx *Lexer) dotOpFollows(i int) bool {
	if i >= len(lx.src) || lx.src[i] != '.' {
		return false
	}
	j := i + 1
	for j < len(lx.src) && isLetter(lx.src[j]) {
		j++
	}
	if j >= len(lx.src) || lx.src[j] != '.' {
		return false
	}
	word := strings.ToLower(lx.src[i+1 : j])
	_, ok := dotOps[word]
	return ok
}

var dotOps = map[string]TokKind{
	"and": AND, "or": OR, "not": NOT,
	"eq": EQ, "ne": NE, "lt": LT, "le": LE, "gt": GT, "ge": GE,
	"true": TRUE, "false": FALSE,
}

func (lx *Lexer) lexDotWord(pos Pos) Token {
	lx.advance() // '.'
	start := lx.pos
	for lx.pos < len(lx.src) && isLetter(lx.peekByte()) {
		lx.advance()
	}
	word := strings.ToLower(lx.src[start:lx.pos])
	if lx.peekByte() != '.' {
		lx.errorf(pos, "malformed dot operator .%s", word)
		return lx.next()
	}
	lx.advance() // trailing '.'
	kind, ok := dotOps[word]
	if !ok {
		lx.errorf(pos, "unknown dot operator .%s.", word)
		return lx.next()
	}
	return Token{Kind: kind, Text: "." + word + ".", Pos: pos}
}

func (lx *Lexer) lexString(pos Pos, quote byte) Token {
	lx.advance() // opening quote
	var sb strings.Builder
	for {
		if lx.pos >= len(lx.src) || lx.peekByte() == '\n' {
			lx.errorf(pos, "unterminated string literal")
			break
		}
		c := lx.advance()
		if c == quote {
			if lx.peekByte() == quote { // doubled quote escape
				lx.advance()
				sb.WriteByte(quote)
				continue
			}
			break
		}
		sb.WriteByte(c)
	}
	return Token{Kind: STRLIT, Text: sb.String(), Pos: pos}
}
