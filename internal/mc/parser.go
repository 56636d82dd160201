package mc

import "fmt"

// maxNesting bounds how deeply a source may nest. One level is each
// statement inside another statement or block, each initializer
// brace, each assignment-level expression (a parenthesized expression,
// an index, a call argument, an assignment's right-hand side, a
// ternary branch), each unary operator, cast or operand, and each
// operator of a left-deep binary or postfix chain (a+b+c…, a[i][j]…),
// which the parser builds in a loop but check and irgen walk
// recursively. A deeper source is a compile error at the token where
// the limit is crossed, not a stack overflow, which Go cannot recover
// from. The suite, the fuzz generator and perfbench's generators reach
// at most 29 levels, and their longest chain has 5 operators.
const maxNesting = 1000

// Parser builds an AST from the tokens of one source. It pulls them from
// a Lexer through a two-token window: the parser looks ahead at most one
// token and never backs up, so no source is ever held as a token slice.
type Parser struct {
	lex    *Lexer
	tok    [2]Token // the current token and the one after it
	lexErr error    // the first lex error; the window reads EOF from there on
	depth  int      // nesting levels entered; see maxNesting
}

// enter counts one nesting level and fails past maxNesting. The level
// stays counted until leave; on an error the parse ends anyway.
func (p *Parser) enter() error {
	p.depth++
	if p.depth > maxNesting {
		return p.errHere("nesting exceeds %d levels", maxNesting)
	}
	return nil
}

func (p *Parser) leave() { p.depth-- }

// Parse parses a complete MC translation unit. A lex error anywhere in
// the source is the error it returns, even after an earlier parse error.
func Parse(src string) (*Unit, error) {
	p := &Parser{lex: NewLexer(src)}
	p.tok[0] = p.lexNext()
	p.tok[1] = p.lexNext()
	u, err := p.parseUnit()
	if err != nil && p.lexErr == nil {
		// Lex the rest of the source, storing nothing, for a lex error
		// that outranks the parse error.
		for p.lexNext().Kind != TokEOF {
		}
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return u, err
}

// lexNext returns the lexer's next token. At the first lex error it
// records the error and returns EOF from then on, which ends the parse.
func (p *Parser) lexNext() Token {
	if p.lexErr == nil {
		t, err := p.lex.Next()
		if err == nil {
			return t
		}
		p.lexErr = err
	}
	return Token{Kind: TokEOF}
}

func (p *Parser) cur() Token  { return p.tok[0] }
func (p *Parser) peek() Token { return p.tok[1] }

func (p *Parser) next() Token {
	t := p.tok[0]
	p.tok[0], p.tok[1] = p.tok[1], p.lexNext()
	return t
}

func (p *Parser) at(kind TokKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *Parser) atPunct(text string) bool   { return p.at(TokPunct, text) }
func (p *Parser) atKeyword(text string) bool { return p.at(TokKeyword, text) }

func (p *Parser) accept(kind TokKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(kind TokKind, text string) (Token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	t := p.cur()
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return t, errAt(int(t.Line), int(t.Col), "expected %q, found %s", want, t)
}

func (p *Parser) errHere(format string, args ...interface{}) error {
	t := p.cur()
	return errAt(int(t.Line), int(t.Col), format, args...)
}

// atTypeName reports whether the current token begins a type.
func (p *Parser) atTypeName() bool {
	return p.atKeyword("int") || p.atKeyword("char") || p.atKeyword("float") || p.atKeyword("void")
}

func (p *Parser) parseBaseType() (*Type, error) {
	t := p.cur()
	if t.Kind != TokKeyword {
		return nil, p.errHere("expected type name, found %s", t)
	}
	p.next()
	switch t.Text {
	case "int":
		return IntType, nil
	case "char":
		return CharType, nil
	case "float":
		return FloatType, nil
	case "void":
		return VoidType, nil
	}
	return nil, errAt(int(t.Line), int(t.Col), "expected type name, found %s", t)
}

// parseUnit = { global-var | function }*
func (p *Parser) parseUnit() (*Unit, error) {
	u := &Unit{}
	for !p.at(TokEOF, "") {
		base, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		typ := base
		for p.accept(TokPunct, "*") {
			typ = PtrTo(typ)
		}
		nameTok, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		if p.atPunct("(") {
			fn, err := p.parseFuncRest(typ, nameTok)
			if err != nil {
				return nil, err
			}
			u.Funcs = append(u.Funcs, fn)
			continue
		}
		decls, err := p.parseVarDeclRest(base, typ, nameTok)
		if err != nil {
			return nil, err
		}
		u.Globals = append(u.Globals, decls...)
	}
	return u, nil
}

// parseVarDeclRest parses the remainder of a variable declaration whose
// first declarator's pointer-decorated type and name were already consumed.
// base is the undeclared base type for subsequent comma declarators.
func (p *Parser) parseVarDeclRest(base, typ *Type, nameTok Token) ([]*VarDecl, error) {
	var out []*VarDecl
	for {
		full, err := p.parseArraySuffix(typ)
		if err != nil {
			return nil, err
		}
		d := &VarDecl{pos: nameTok.pos(), Name: nameTok.Text, Type: full}
		if p.accept(TokPunct, "=") {
			init, err := p.parseInitializer()
			if err != nil {
				return nil, err
			}
			d.Init = init
		}
		out = append(out, d)
		if p.accept(TokPunct, ",") {
			typ = base
			for p.accept(TokPunct, "*") {
				typ = PtrTo(typ)
			}
			nameTok, err = p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			continue
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return out, nil
	}
}

func (p *Parser) parseArraySuffix(typ *Type) (*Type, error) {
	var dims []int
	for p.accept(TokPunct, "[") {
		t, err := p.expect(TokInt, "")
		if err != nil {
			return nil, err
		}
		if t.Int <= 0 {
			return nil, errAt(int(t.Line), int(t.Col), "array size must be positive")
		}
		dims = append(dims, int(t.Int))
		if _, err := p.expect(TokPunct, "]"); err != nil {
			return nil, err
		}
	}
	for i := len(dims) - 1; i >= 0; i-- {
		typ = ArrayOf(typ, dims[i])
	}
	return typ, nil
}

func (p *Parser) parseInitializer() (*Initializer, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	if p.accept(TokPunct, "{") {
		init := &Initializer{pos: t.pos()}
		for !p.atPunct("}") {
			sub, err := p.parseInitializer()
			if err != nil {
				return nil, err
			}
			init.List = append(init.List, sub)
			if !p.accept(TokPunct, ",") {
				break
			}
		}
		if _, err := p.expect(TokPunct, "}"); err != nil {
			return nil, err
		}
		return init, nil
	}
	e, err := p.parseAssign()
	if err != nil {
		return nil, err
	}
	return &Initializer{pos: t.pos(), Expr: e}, nil
}

func (p *Parser) parseFuncRest(ret *Type, nameTok Token) (*FuncDecl, error) {
	fn := &FuncDecl{pos: nameTok.pos(), Name: nameTok.Text, Ret: ret}
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	if !p.atPunct(")") {
		if p.atKeyword("void") && p.peek().Kind == TokPunct && p.peek().Text == ")" {
			p.next()
		} else {
			for {
				base, err := p.parseBaseType()
				if err != nil {
					return nil, err
				}
				typ := base
				for p.accept(TokPunct, "*") {
					typ = PtrTo(typ)
				}
				pt, err := p.expect(TokIdent, "")
				if err != nil {
					return nil, err
				}
				// T name[] means pointer parameter.
				for p.accept(TokPunct, "[") {
					if p.cur().Kind == TokInt {
						p.next() // size ignored for params
					}
					if _, err := p.expect(TokPunct, "]"); err != nil {
						return nil, err
					}
					typ = PtrTo(typ)
				}
				fn.Params = append(fn.Params, &Param{pos: pt.pos(), Name: pt.Text, Type: typ})
				if !p.accept(TokPunct, ",") {
					break
				}
			}
		}
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *Parser) parseBlock() (*Block, error) {
	t, err := p.expect(TokPunct, "{")
	if err != nil {
		return nil, err
	}
	b := &Block{pos: t.pos()}
	for !p.atPunct("}") {
		if p.at(TokEOF, "") {
			return nil, p.errHere("unexpected end of input in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // }
	return b, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	switch {
	case p.atPunct("{"):
		return p.parseBlock()
	case p.atPunct(";"):
		p.next()
		return &Empty{t.pos()}, nil
	case p.atTypeName():
		return p.parseLocalDecl()
	case p.atKeyword("if"):
		return p.parseIf()
	case p.atKeyword("while"):
		return p.parseWhile()
	case p.atKeyword("do"):
		return p.parseDoWhile()
	case p.atKeyword("for"):
		return p.parseFor()
	case p.atKeyword("switch"):
		return p.parseSwitch()
	case p.atKeyword("break"):
		p.next()
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &Break{t.pos()}, nil
	case p.atKeyword("continue"):
		p.next()
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &Continue{t.pos()}, nil
	case p.atKeyword("return"):
		p.next()
		r := &Return{pos: t.pos()}
		if !p.atPunct(";") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			r.X = e
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return r, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	return &ExprStmt{t.pos(), e}, nil
}

func (p *Parser) parseLocalDecl() (Stmt, error) {
	t := p.cur()
	base, err := p.parseBaseType()
	if err != nil {
		return nil, err
	}
	typ := base
	for p.accept(TokPunct, "*") {
		typ = PtrTo(typ)
	}
	nameTok, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	decls, err := p.parseVarDeclRest(base, typ, nameTok)
	if err != nil {
		return nil, err
	}
	return &DeclStmt{t.pos(), decls}, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	t := p.next() // if
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	then, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	s := &If{pos: t.pos(), Cond: cond, Then: then}
	if p.accept(TokKeyword, "else") {
		els, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		s.Else = els
	}
	return s, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	t := p.next() // while
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &While{t.pos(), cond, body}, nil
}

func (p *Parser) parseDoWhile() (Stmt, error) {
	t := p.next() // do
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "while"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	return &DoWhile{t.pos(), body, cond}, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	t := p.next() // for
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	s := &For{pos: t.pos()}
	if !p.atPunct(";") {
		if p.atTypeName() {
			init, err := p.parseLocalDecl()
			if err != nil {
				return nil, err
			}
			s.Init = init
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.Init = &ExprStmt{t.pos(), e}
			if _, err := p.expect(TokPunct, ";"); err != nil {
				return nil, err
			}
		}
	} else {
		p.next()
	}
	if !p.atPunct(";") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Cond = cond
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	if !p.atPunct(")") {
		post, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Post = post
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	s.Body = body
	return s, nil
}

func (p *Parser) parseSwitch() (Stmt, error) {
	t := p.next() // switch
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, "{"); err != nil {
		return nil, err
	}
	s := &Switch{pos: t.pos(), X: x}
	for !p.atPunct("}") {
		ct := p.cur()
		var c *Case
		if p.accept(TokKeyword, "case") {
			c = &Case{pos: ct.pos()}
			neg := p.accept(TokPunct, "-")
			vt := p.cur()
			if vt.Kind != TokInt && vt.Kind != TokChar {
				return nil, p.errHere("case label must be an integer constant")
			}
			p.next()
			c.Value = vt.Int
			if neg {
				c.Value = -c.Value
			}
		} else if p.accept(TokKeyword, "default") {
			c = &Case{pos: ct.pos(), IsDefault: true}
		} else {
			return nil, p.errHere("expected case or default in switch")
		}
		if _, err := p.expect(TokPunct, ":"); err != nil {
			return nil, err
		}
		for !p.atKeyword("case") && !p.atKeyword("default") && !p.atPunct("}") {
			st, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			c.Body = append(c.Body, st)
		}
		s.Cases = append(s.Cases, c)
	}
	p.next() // }
	return s, nil
}

// ---- Expressions (precedence climbing) ----

func (p *Parser) parseExpr() (Expr, error) { return p.parseAssign() }

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

func (p *Parser) parseAssign() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	l, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == TokPunct && assignOps[t.Text] {
		p.next()
		r, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		return &Assign{exprBase: exprBase{pos: t.pos()}, Op: t.Text, L: l, R: r}, nil
	}
	return l, nil
}

func (p *Parser) parseTernary() (Expr, error) {
	c, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if p.accept(TokPunct, "?") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		tv, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ":"); err != nil {
			return nil, err
		}
		fv, err := p.parseTernary()
		if err != nil {
			return nil, err
		}
		return &CondExpr{exprBase: exprBase{pos: t.pos()}, C: c, T: tv, F: fv}, nil
	}
	return c, nil
}

// binPrec returns the precedence level of a binary operator, from 0
// (||, the loosest) to 9 (* / %, the tightest), or -1 for any other
// token.
func binPrec(t *Token) int {
	if t.Kind != TokPunct {
		return -1
	}
	switch t.Text {
	case "||":
		return 0
	case "&&":
		return 1
	case "|":
		return 2
	case "^":
		return 3
	case "&":
		return 4
	case "==", "!=":
		return 5
	case "<", "<=", ">", ">=":
		return 6
	case "<<", ">>":
		return 7
	case "+", "-":
		return 8
	case "*", "/", "%":
		return 9
	}
	return -1
}

// parseBinary parses a binary expression whose operators all have
// precedence minPrec or higher, by precedence climbing: an operator's
// right operand takes only operators that bind tighter, so operators
// of one level associate to the left.
func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	defer func(depth int) { p.depth = depth }(p.depth)
	for {
		t := p.cur()
		prec := binPrec(&t)
		if prec < minPrec {
			return l, nil
		}
		if err := p.enter(); err != nil {
			return nil, err
		}
		p.next()
		r, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		l = &Binary{exprBase: exprBase{pos: t.pos()}, Op: t.Text, L: l, R: r}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	if t.Kind == TokPunct {
		switch t.Text {
		case "!", "~", "-", "+", "*", "&", "++", "--":
			p.next()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			if t.Text == "+" {
				return x, nil
			}
			return &Unary{exprBase: exprBase{pos: t.pos()}, Op: t.Text, X: x}, nil
		case "(":
			// Cast or parenthesized expression.
			if p.peek().Kind == TokKeyword && keywordIsType(p.peek().Text) {
				p.next() // (
				base, err := p.parseBaseType()
				if err != nil {
					return nil, err
				}
				typ := base
				for p.accept(TokPunct, "*") {
					typ = PtrTo(typ)
				}
				if _, err := p.expect(TokPunct, ")"); err != nil {
					return nil, err
				}
				x, err := p.parseUnary()
				if err != nil {
					return nil, err
				}
				return &Cast{exprBase: exprBase{pos: t.pos()}, To: typ, X: x}, nil
			}
		}
	}
	return p.parsePostfix()
}

func keywordIsType(s string) bool {
	return s == "int" || s == "char" || s == "float" || s == "void"
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	defer func(depth int) { p.depth = depth }(p.depth)
	for {
		t := p.cur()
		if t.Kind == TokPunct && (t.Text == "[" || t.Text == "(" || t.Text == "++" || t.Text == "--") {
			if err := p.enter(); err != nil {
				return nil, err
			}
		}
		switch {
		case p.accept(TokPunct, "["):
			i, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, "]"); err != nil {
				return nil, err
			}
			x = &Index{exprBase: exprBase{pos: t.pos()}, X: x, I: i}
		case p.accept(TokPunct, "("):
			call := &Call{exprBase: exprBase{pos: t.pos()}, Fun: x}
			for !p.atPunct(")") {
				a, err := p.parseAssign()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if !p.accept(TokPunct, ",") {
					break
				}
			}
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
			x = call
		case p.atPunct("++") || p.atPunct("--"):
			p.next()
			x = &Postfix{exprBase: exprBase{pos: t.pos()}, Op: t.Text, X: x}
		default:
			return x, nil
		}
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.next()
		return &IntLit{exprBase: exprBase{pos: t.pos()}, Value: t.Int}, nil
	case TokChar:
		p.next()
		return &IntLit{exprBase: exprBase{pos: t.pos()}, Value: t.Int}, nil
	case TokFloat:
		p.next()
		return &FloatLit{exprBase: exprBase{pos: t.pos()}, Value: t.Flt}, nil
	case TokString:
		p.next()
		return &StrLit{exprBase: exprBase{pos: t.pos()}, Value: t.Str}, nil
	case TokIdent:
		p.next()
		return &Ident{exprBase: exprBase{pos: t.pos()}, Name: t.Text}, nil
	case TokPunct:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errHere("expected expression, found %s", t)
}
