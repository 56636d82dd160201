// Package mc implements the front end of MC, the small C-like language the
// benchmark suite is written in. MC plays the role of the C subset compiled
// by the paper's retargeted compiler: integers, characters, floats,
// pointers, arrays, functions, and the full complement of C control flow —
// enough to express the Appendix I test programs.
package mc

import "fmt"

// TokKind classifies tokens.
type TokKind uint8

const (
	TokEOF TokKind = iota
	TokIdent
	TokInt    // integer literal
	TokFloat  // floating literal
	TokChar   // character literal
	TokString // string literal
	TokKeyword
	TokPunct
)

// Token is one lexical token with its source position. The lexer
// returns tokens by value and the parser copies them through its
// two-token window, so the record is kept small (its size is pinned by
// TestTokenSize).
type Token struct {
	Kind TokKind
	Text string  // identifier, keyword, or punctuation spelling
	Int  int64   // TokInt / TokChar value
	Flt  float64 // TokFloat value
	Str  string  // TokString decoded contents
	Line int32
	Col  int32
}

func (t Token) pos() pos { return pos{int(t.Line), int(t.Col)} }

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokInt:
		return fmt.Sprintf("%d", t.Int)
	case TokFloat:
		return fmt.Sprintf("%g", t.Flt)
	case TokChar:
		return fmt.Sprintf("%q", rune(t.Int))
	case TokString:
		return fmt.Sprintf("%q", t.Str)
	default:
		return t.Text
	}
}

var keywords = map[string]bool{
	"int": true, "char": true, "float": true, "void": true,
	"if": true, "else": true, "while": true, "for": true, "do": true,
	"switch": true, "case": true, "default": true,
	"break": true, "continue": true, "return": true,
}

// Error is a front-end diagnostic carrying a source position.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

func errAt(line, col int, format string, args ...interface{}) error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}
