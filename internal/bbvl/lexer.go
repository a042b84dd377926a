package bbvl

import "fmt"

// tokKind enumerates the token classes of the language.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokColon  // :
	tokSemi   // ;
	tokComma  // ,
	tokDot    // .
	tokAssign // =
	tokEq     // ==
	tokNeq    // !=
	tokLt     // <
	tokLBrace // {
	tokRBrace // }
	tokLParen // (
	tokRParen // )
	tokPlus   // +
)

var tokNames = [...]string{
	tokEOF:    "end of file",
	tokIdent:  "identifier",
	tokInt:    "integer",
	tokColon:  `":"`,
	tokSemi:   `";"`,
	tokComma:  `","`,
	tokDot:    `"."`,
	tokAssign: `"="`,
	tokEq:     `"=="`,
	tokNeq:    `"!="`,
	tokLt:     `"<"`,
	tokLBrace: `"{"`,
	tokRBrace: `"}"`,
	tokLParen: `"("`,
	tokRParen: `")"`,
	tokPlus:   `"+"`,
}

func (k tokKind) String() string { return tokNames[k] }

// token is one lexeme with its source position.
type token struct {
	kind tokKind
	text string
	pos  Pos
}

// describe renders a token for "unexpected X" diagnostics.
func (t token) describe() string {
	switch t.kind {
	case tokIdent, tokInt:
		return fmt.Sprintf("%q", t.text)
	default:
		return t.kind.String()
	}
}

// lexer turns model source into tokens, tracking line/column positions.
// Identifiers start with a letter or underscore and may contain letters,
// digits, underscores and interior dashes (so model names like
// "ms-queue" are single identifiers; the language has no binary minus).
// A dash directly before a digit starts a negative integer ("-1").
// Comments run from "#" or "//" to end of line.
type lexer struct {
	file string
	src  []byte
	off  int
	line int
	col  int
}

func newLexer(file string, src []byte) *lexer {
	return &lexer{file: file, src: src, line: 1, col: 1}
}

func (lx *lexer) pos() Pos { return Pos{File: lx.file, Line: lx.line, Col: lx.col} }

// bump consumes one byte, maintaining the position.
func (lx *lexer) bump() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *lexer) peekByte() (byte, bool) {
	if lx.off >= len(lx.src) {
		return 0, false
	}
	return lx.src[lx.off], true
}

func isIdentStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || ('0' <= c && c <= '9')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// skipSpace consumes whitespace and comments.
func (lx *lexer) skipSpace() {
	for {
		c, ok := lx.peekByte()
		if !ok {
			return
		}
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.bump()
		case c == '#':
			lx.skipLine()
		case c == '/':
			if lx.off+1 < len(lx.src) && lx.src[lx.off+1] == '/' {
				lx.skipLine()
			} else {
				return
			}
		default:
			return
		}
	}
}

func (lx *lexer) skipLine() {
	for {
		c, ok := lx.peekByte()
		if !ok || c == '\n' {
			return
		}
		lx.bump()
	}
}

// next returns the next token or a positioned error for a byte the
// language has no use for.
func (lx *lexer) next() (token, *Error) {
	lx.skipSpace()
	pos := lx.pos()
	c, ok := lx.peekByte()
	if !ok {
		return token{kind: tokEOF, pos: pos}, nil
	}
	switch {
	case isIdentStart(c):
		start := lx.off
		lx.bump()
		for {
			c, ok := lx.peekByte()
			if !ok {
				break
			}
			if isIdentPart(c) {
				lx.bump()
				continue
			}
			// An interior dash continues the identifier only when a
			// letter, digit or underscore follows ("ms-queue").
			if c == '-' && lx.off+1 < len(lx.src) && isIdentPart(lx.src[lx.off+1]) {
				lx.bump()
				continue
			}
			break
		}
		return token{kind: tokIdent, text: string(lx.src[start:lx.off]), pos: pos}, nil
	case isDigit(c) || (c == '-' && lx.off+1 < len(lx.src) && isDigit(lx.src[lx.off+1])):
		start := lx.off
		lx.bump()
		for {
			c, ok := lx.peekByte()
			if !ok || !isDigit(c) {
				break
			}
			lx.bump()
		}
		return token{kind: tokInt, text: string(lx.src[start:lx.off]), pos: pos}, nil
	}
	lx.bump()
	switch c {
	case ':':
		return token{kind: tokColon, pos: pos}, nil
	case ';':
		return token{kind: tokSemi, pos: pos}, nil
	case ',':
		return token{kind: tokComma, pos: pos}, nil
	case '.':
		return token{kind: tokDot, pos: pos}, nil
	case '{':
		return token{kind: tokLBrace, pos: pos}, nil
	case '}':
		return token{kind: tokRBrace, pos: pos}, nil
	case '(':
		return token{kind: tokLParen, pos: pos}, nil
	case ')':
		return token{kind: tokRParen, pos: pos}, nil
	case '+':
		return token{kind: tokPlus, pos: pos}, nil
	case '<':
		return token{kind: tokLt, pos: pos}, nil
	case '=':
		if n, ok := lx.peekByte(); ok && n == '=' {
			lx.bump()
			return token{kind: tokEq, pos: pos}, nil
		}
		return token{kind: tokAssign, pos: pos}, nil
	case '!':
		if n, ok := lx.peekByte(); ok && n == '=' {
			lx.bump()
			return token{kind: tokNeq, pos: pos}, nil
		}
		return nil0Token(pos, `"!" must be followed by "=" (the language has no boolean negation)`)
	}
	return nil0Token(pos, fmt.Sprintf("unexpected character %q", c))
}

func nil0Token(pos Pos, msg string) (token, *Error) {
	return token{kind: tokEOF, pos: pos}, &Error{Pos: pos, Msg: msg}
}
