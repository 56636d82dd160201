package mc

import (
	"strconv"
	"strings"
)

// Lexer turns MC source text into tokens.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			line, col := l.line, l.col
			l.advance()
			l.advance()
			for {
				if l.pos >= len(l.src) {
					return errAt(line, col, "unterminated comment")
				}
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

// punctLen returns the length of the punctuator that starts rest, or 0
// if none does. It picks by the first byte and takes the longest match
// (maximal munch: "<<=" over "<<" over "<", "->" over "-").
func punctLen(rest string) int {
	var c1, c2 byte
	if len(rest) > 1 {
		c1 = rest[1]
	}
	if len(rest) > 2 {
		c2 = rest[2]
	}
	switch c := rest[0]; c {
	case '<', '>':
		switch {
		case c1 == c && c2 == '=':
			return 3
		case c1 == c || c1 == '=':
			return 2
		}
		return 1
	case '=', '!', '*', '/', '%', '^':
		if c1 == '=' {
			return 2
		}
		return 1
	case '&', '|', '+':
		if c1 == c || c1 == '=' {
			return 2
		}
		return 1
	case '-':
		if c1 == '-' || c1 == '=' || c1 == '>' {
			return 2
		}
		return 1
	case '~', '(', ')', '{', '}', '[', ']', ';', ',', '?', ':', '.':
		return 1
	}
	return 0
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Line: int32(line), Col: int32(col)}, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentCont(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.pos]
		kind := TokIdent
		if keywords[text] {
			kind = TokKeyword
		}
		return Token{Kind: kind, Text: text, Line: int32(line), Col: int32(col)}, nil

	case isDigit(c) || (c == '.' && isDigit(l.peek2())):
		return l.lexNumber(line, col)

	case c == '\'':
		return l.lexChar(line, col)

	case c == '"':
		return l.lexString(line, col)
	}
	if n := punctLen(l.src[l.pos:]); n > 0 {
		// No punctuator spans a newline.
		start := l.pos
		l.pos += n
		l.col += n
		return Token{Kind: TokPunct, Text: l.src[start:l.pos], Line: int32(line), Col: int32(col)}, nil
	}
	return Token{}, errAt(line, col, "unexpected character %q", c)
}

func (l *Lexer) lexNumber(line, col int) (Token, error) {
	start := l.pos
	if l.peek() == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
		l.advance()
		l.advance()
		for l.pos < len(l.src) && isHexDigit(l.peek()) {
			l.advance()
		}
		v, err := strconv.ParseInt(l.src[start+2:l.pos], 16, 64)
		if err != nil {
			return Token{}, errAt(line, col, "bad hex literal %q", l.src[start:l.pos])
		}
		return Token{Kind: TokInt, Int: v, Line: int32(line), Col: int32(col)}, nil
	}
	isFloat := false
	for l.pos < len(l.src) && isDigit(l.peek()) {
		l.advance()
	}
	if l.peek() == '.' && isDigit(l.peek2()) {
		isFloat = true
		l.advance()
		for l.pos < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
	} else if l.peek() == '.' && !isIdentStart(l.peek2()) {
		isFloat = true
		l.advance()
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		save := l.pos
		l.advance()
		if l.peek() == '+' || l.peek() == '-' {
			l.advance()
		}
		if isDigit(l.peek()) {
			isFloat = true
			for l.pos < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		} else {
			l.pos = save
		}
	}
	text := l.src[start:l.pos]
	if isFloat {
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Token{}, errAt(line, col, "bad float literal %q", text)
		}
		return Token{Kind: TokFloat, Flt: v, Line: int32(line), Col: int32(col)}, nil
	}
	v, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return Token{}, errAt(line, col, "bad integer literal %q", text)
	}
	return Token{Kind: TokInt, Int: v, Line: int32(line), Col: int32(col)}, nil
}

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func (l *Lexer) escape(line, col int) (byte, error) {
	if l.pos >= len(l.src) {
		return 0, errAt(line, col, "unterminated escape")
	}
	c := l.advance()
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case 'b':
		return '\b', nil
	case 'f':
		return '\f', nil
	case '\\', '\'', '"':
		return c, nil
	}
	return 0, errAt(line, col, "unknown escape \\%c", c)
}

func (l *Lexer) lexChar(line, col int) (Token, error) {
	l.advance() // '
	if l.pos >= len(l.src) {
		return Token{}, errAt(line, col, "unterminated character literal")
	}
	var v byte
	c := l.advance()
	if c == '\\' {
		e, err := l.escape(line, col)
		if err != nil {
			return Token{}, err
		}
		v = e
	} else {
		v = c
	}
	if l.pos >= len(l.src) || l.advance() != '\'' {
		return Token{}, errAt(line, col, "unterminated character literal")
	}
	return Token{Kind: TokChar, Int: int64(v), Line: int32(line), Col: int32(col)}, nil
}

func (l *Lexer) lexString(line, col int) (Token, error) {
	l.advance() // "
	var b strings.Builder
	for {
		if l.pos >= len(l.src) {
			return Token{}, errAt(line, col, "unterminated string literal")
		}
		c := l.advance()
		if c == '"' {
			break
		}
		if c == '\\' {
			e, err := l.escape(line, col)
			if err != nil {
				return Token{}, err
			}
			b.WriteByte(e)
			continue
		}
		b.WriteByte(c)
	}
	return Token{Kind: TokString, Str: b.String(), Line: int32(line), Col: int32(col)}, nil
}
