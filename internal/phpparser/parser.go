// Package phpparser implements a recursive-descent parser producing
// phpast trees from PHP source.
//
// The accepted dialect covers the core syntax of Table I of the UChecker
// paper plus everything the paper's listings and the evaluation corpus use:
// functions, conditionals (including elseif chains and the alternative
// colon syntax), loops, switch, echo/print, include/require, classes with
// methods, closures, array literals in both spellings, string
// interpolation, isset/empty/unset, casts, and error suppression.
//
// Parsing is tolerant: syntax errors are recorded and the parser
// resynchronizes at the next statement boundary, so one malformed construct
// does not hide an entire plugin from analysis.
package phpparser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/phpast"
	"repro/internal/phplex"
	"repro/internal/phptoken"
)

// Parser parses one PHP file. It pulls tokens from the lexer on demand
// through a lookahead window of at most two tokens beyond the current one,
// so no token slice is ever materialised.
type Parser struct {
	file   string
	lex    *phplex.Lexer
	tok    phptoken.Token    // current token
	ahead  [2]phptoken.Token // lookahead beyond tok, valid up to nahead
	nahead int

	prevLine int // line of the last consumed token, for end lines
	consumed int // tokens consumed so far, for parseStmt's progress check
	errs     []error

	// Scratch stacks for the lists under construction. Nested lists finish
	// before their parent's next item, so one stack per element type
	// serves every depth, and each finished list costs a single exact-size
	// allocation instead of repeated growth.
	stmts  scratch[phpast.Stmt]
	exprs  scratch[phpast.Expr]
	params scratch[phpast.Param]

	// Slabs for the node types that make up most of a typical AST.
	vars      slab[phpast.Var]
	binaries  slab[phpast.Binary]
	assigns   slab[phpast.Assign]
	exprStmts slab[phpast.ExprStmt]
	intLits   slab[phpast.IntLit]
	strLits   slab[phpast.StringLit]
	returns   slab[phpast.Return]
}

// slabSize is the number of nodes per slab chunk: large enough to make
// allocation cheap, small enough that a file's unused tail stays a few
// kilobytes.
const slabSize = 32

// slab hands out nodes of one type from chunks of slabSize, so the many
// small nodes of a file cost one allocation per chunk instead of one each.
type slab[T any] struct{ free []T }

// alloc stores v in the slab and returns its address.
func (s *slab[T]) alloc(v T) *T {
	if len(s.free) == 0 {
		s.free = make([]T, slabSize)
	}
	x := &s.free[0]
	*x = v
	s.free = s.free[1:]
	return x
}

// scratch is a stack of list items shared by nested lists.
type scratch[T any] struct{ items []T }

// mark returns the base of a new list.
func (s *scratch[T]) mark() int { return len(s.items) }

func (s *scratch[T]) push(x T) { s.items = append(s.items, x) }

// pop removes the list that began at base and returns it as a new slice,
// or nil when it is empty.
func (s *scratch[T]) pop(base int) []T {
	list := s.items[base:]
	if len(list) == 0 {
		return nil
	}
	out := make([]T, len(list))
	copy(out, list)
	clear(list)
	s.items = s.items[:base]
	return out
}

func newParser(file, src string) *Parser {
	p := &Parser{file: file, lex: phplex.New(file, src)}
	p.tok = p.lex.Next()
	return p
}

// errors returns every lexical error of the whole input, then the parse
// errors in the order they were found.
func (p *Parser) errors() []error {
	for p.lex.Next().Kind != phptoken.EOF {
	}
	lexErrs := p.lex.Errors()
	if len(lexErrs) == 0 {
		return p.errs
	}
	return append(lexErrs[:len(lexErrs):len(lexErrs)], p.errs...)
}

// Parse parses src as the contents of the named file. It always returns a
// (possibly partial) File; errors describe any malformed regions that were
// skipped.
func Parse(file, src string) (*phpast.File, []error) {
	p := newParser(file, src)
	base := p.stmts.mark()
	for !p.at(phptoken.EOF) {
		if s := p.parseTopLevel(); s != nil {
			p.stmts.push(s)
		}
	}
	return &phpast.File{Name: file, Stmts: p.stmts.pop(base)}, p.errors()
}

// ParseExpr parses a standalone PHP expression (no surrounding <?php tag),
// as used for the inner text of complex string interpolation.
func ParseExpr(file, src string) (phpast.Expr, []error) {
	p := newParser(file, "<?php "+src)
	if p.at(phptoken.OpenTag) {
		p.next()
	}
	e := p.parseExpr()
	return e, p.errors()
}

// --- token plumbing ---

func (p *Parser) cur() phptoken.Token { return p.tok }

func (p *Parser) at(k phptoken.Kind) bool { return p.tok.Kind == k }

func (p *Parser) atAny(ks ...phptoken.Kind) bool {
	for _, k := range ks {
		if p.tok.Kind == k {
			return true
		}
	}
	return false
}

// peek returns the token n places after the current one (n is 1 or 2).
// Past the end of input the lexer keeps returning EOF.
func (p *Parser) peek(n int) phptoken.Token {
	for p.nahead < n {
		p.ahead[p.nahead] = p.lex.Next()
		p.nahead++
	}
	return p.ahead[n-1]
}

// next consumes the current token and returns it.
func (p *Parser) next() phptoken.Token {
	t := p.tok
	p.advance()
	return t
}

// advance moves to the next token; at EOF it stays put.
func (p *Parser) advance() {
	if p.tok.Kind == phptoken.EOF {
		return
	}
	p.prevLine = p.tok.Pos.Line
	p.consumed++
	if p.nahead > 0 {
		p.tok = p.ahead[0]
		p.ahead[0] = p.ahead[1]
		p.nahead--
	} else {
		p.tok = p.lex.Next()
	}
}

func (p *Parser) expect(k phptoken.Kind) phptoken.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf("expected %v, found %v", k, p.cur().Kind)
	return phptoken.Token{Kind: k, Pos: p.cur().Pos}
}

// accept consumes and returns true if the current token has kind k.
func (p *Parser) accept(k phptoken.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) errorf(format string, args ...any) {
	p.errs = append(p.errs, fmt.Errorf("%s:%s: %s", p.file, p.cur().Pos, fmt.Sprintf(format, args...)))
}

// atIdent reports whether the current token is an identifier with the given
// lower-case spelling (PHP identifiers in statement positions like "endif"
// are context keywords).
func (p *Parser) atIdent(lower string) bool {
	return p.at(phptoken.Ident) && equalFoldASCII(p.tok.Value, lower)
}

// equalFoldASCII reports whether s equals lower, a lower-case word, with
// ASCII letters compared case-insensitively. PHP's keywords, context
// keywords and cast names ignore case in ASCII only.
func equalFoldASCII(s, lower string) bool {
	if len(s) != len(lower) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// sync skips tokens until a statement boundary to recover from errors.
func (p *Parser) sync() {
	for !p.at(phptoken.EOF) {
		k := p.cur().Kind
		if k == phptoken.Semicolon || k == phptoken.RBrace || k == phptoken.CloseTag {
			p.next()
			return
		}
		p.next()
	}
}

// --- statements ---

func (p *Parser) parseTopLevel() phpast.Stmt {
	switch p.cur().Kind {
	case phptoken.InlineHTML:
		t := p.next()
		return &phpast.InlineHTML{P: t.Pos, Text: t.Value}
	case phptoken.OpenTag:
		p.next()
		return nil
	case phptoken.OpenEcho:
		t := p.next()
		args := p.parseExprList()
		p.accept(phptoken.Semicolon)
		return &phpast.Echo{P: t.Pos, Args: args}
	case phptoken.CloseTag:
		p.next()
		return nil
	default:
		return p.parseStmt()
	}
}

func (p *Parser) parseStmt() phpast.Stmt {
	start := p.consumed
	s := p.parseStmtKind()
	// Guarantee forward progress even on pathological inputs.
	if p.consumed == start && !p.at(phptoken.EOF) {
		p.next()
	}
	return s
}

func (p *Parser) parseStmtKind() phpast.Stmt {
	switch p.cur().Kind {
	case phptoken.Semicolon:
		t := p.next()
		return &phpast.Nop{P: t.Pos}
	case phptoken.InlineHTML:
		t := p.next()
		return &phpast.InlineHTML{P: t.Pos, Text: t.Value}
	case phptoken.OpenTag, phptoken.CloseTag:
		p.next()
		return &phpast.Nop{P: p.cur().Pos}
	case phptoken.OpenEcho:
		t := p.next()
		args := []phpast.Expr{p.parseExpr()}
		p.accept(phptoken.Semicolon)
		return &phpast.Echo{P: t.Pos, Args: args}
	case phptoken.LBrace:
		return p.parseBlock()
	case phptoken.KwIf:
		return p.parseIf()
	case phptoken.KwWhile:
		return p.parseWhile()
	case phptoken.KwDo:
		return p.parseDoWhile()
	case phptoken.KwFor:
		return p.parseFor()
	case phptoken.KwForeach:
		return p.parseForeach()
	case phptoken.KwSwitch:
		return p.parseSwitch()
	case phptoken.KwBreak:
		t := p.next()
		lvl := 0
		if p.at(phptoken.IntLit) {
			lvl, _ = strconv.Atoi(p.next().Value)
		}
		p.stmtEnd()
		return &phpast.Break{P: t.Pos, Level: lvl}
	case phptoken.KwContinue:
		t := p.next()
		lvl := 0
		if p.at(phptoken.IntLit) {
			lvl, _ = strconv.Atoi(p.next().Value)
		}
		p.stmtEnd()
		return &phpast.Continue{P: t.Pos, Level: lvl}
	case phptoken.KwReturn:
		t := p.next()
		var x phpast.Expr
		if !p.atAny(phptoken.Semicolon, phptoken.CloseTag, phptoken.EOF) {
			x = p.parseExpr()
		}
		p.stmtEnd()
		return p.returns.alloc(phpast.Return{P: t.Pos, X: x})
	case phptoken.KwEcho:
		t := p.next()
		args := p.parseExprList()
		p.stmtEnd()
		return &phpast.Echo{P: t.Pos, Args: args}
	case phptoken.KwGlobal:
		t := p.next()
		var names []string
		for {
			if p.at(phptoken.Variable) {
				names = append(names, p.next().Value)
			} else {
				p.errorf("expected variable in global declaration")
				break
			}
			if !p.accept(phptoken.Comma) {
				break
			}
		}
		p.stmtEnd()
		return &phpast.Global{P: t.Pos, Names: names}
	case phptoken.KwStatic:
		// Could be "static $x = 1;" or "static::method()" expression.
		if p.peek(1).Kind == phptoken.Variable {
			return p.parseStaticVars()
		}
		return p.parseExprStmt()
	case phptoken.KwUnset:
		t := p.next()
		p.expect(phptoken.LParen)
		var vars []phpast.Expr
		for !p.at(phptoken.RParen) && !p.at(phptoken.EOF) {
			vars = append(vars, p.parseExpr())
			if !p.accept(phptoken.Comma) {
				break
			}
		}
		p.expect(phptoken.RParen)
		p.stmtEnd()
		return &phpast.Unset{P: t.Pos, Vars: vars}
	case phptoken.KwFunction:
		// Distinguish declaration from closure-expression statement.
		if p.peek(1).Kind == phptoken.Ident || (p.peek(1).Kind == phptoken.Amp && p.peek(2).Kind == phptoken.Ident) {
			return p.parseFuncDecl()
		}
		return p.parseExprStmt()
	case phptoken.KwClass, phptoken.KwInterface:
		return p.parseClassDecl(false)
	case phptoken.KwAbstract, phptoken.KwFinal:
		p.next()
		if p.at(phptoken.KwClass) {
			return p.parseClassDecl(true)
		}
		p.errorf("expected class after abstract/final")
		p.sync()
		return nil
	case phptoken.KwTry:
		return p.parseTry()
	case phptoken.KwThrow:
		t := p.next()
		x := p.parseExpr()
		p.stmtEnd()
		return &phpast.Throw{P: t.Pos, X: x}
	case phptoken.KwNamespace:
		// namespace Foo\Bar; — recorded as a Nop; names are flattened.
		t := p.next()
		for !p.atAny(phptoken.Semicolon, phptoken.LBrace, phptoken.EOF) {
			p.next()
		}
		if p.at(phptoken.LBrace) {
			// Braced namespace: parse contents as a block.
			return p.parseBlock()
		}
		p.accept(phptoken.Semicolon)
		return &phpast.Nop{P: t.Pos}
	case phptoken.KwUse:
		// use Foo\Bar (as Baz); — imports are irrelevant to the analysis.
		t := p.next()
		for !p.atAny(phptoken.Semicolon, phptoken.EOF, phptoken.CloseTag) {
			p.next()
		}
		p.accept(phptoken.Semicolon)
		return &phpast.Nop{P: t.Pos}
	case phptoken.KwConst:
		// const NAME = expr; — treat as assignment to a constant name.
		t := p.next()
		name := p.expect(phptoken.Ident).Value
		p.expect(phptoken.Assign)
		val := p.parseExpr()
		p.stmtEnd()
		return &phpast.ExprStmt{P: t.Pos, X: &phpast.Assign{
			P:      t.Pos,
			Target: &phpast.ConstFetch{P: t.Pos, Name: name},
			Value:  val,
		}}
	case phptoken.EOF:
		return nil
	default:
		return p.parseExprStmt()
	}
}

// stmtEnd consumes a statement terminator: ';' or a close tag (which ends
// the statement implicitly in PHP).
func (p *Parser) stmtEnd() {
	if p.accept(phptoken.Semicolon) {
		return
	}
	if p.at(phptoken.CloseTag) || p.at(phptoken.EOF) {
		return
	}
	p.errorf("expected ';', found %v", p.cur().Kind)
	p.sync()
}

func (p *Parser) parseExprStmt() phpast.Stmt {
	t := p.cur()
	x := p.parseExpr()
	p.stmtEnd()
	if x == nil {
		return nil
	}
	return p.exprStmts.alloc(phpast.ExprStmt{P: t.Pos, X: x})
}

// parseExprList parses one or more comma-separated expressions.
func (p *Parser) parseExprList() []phpast.Expr {
	base := p.exprs.mark()
	p.exprs.push(p.parseExpr())
	for p.accept(phptoken.Comma) {
		p.exprs.push(p.parseExpr())
	}
	return p.exprs.pop(base)
}

func (p *Parser) parseBlock() *phpast.Block {
	pos := p.cur().Pos
	return &phpast.Block{P: pos, Stmts: p.parseBlockStmts()}
}

// parseBlockStmts parses a braced statement list and returns its
// statements, for callers that keep only those.
func (p *Parser) parseBlockStmts() []phpast.Stmt {
	p.expect(phptoken.LBrace)
	base := p.stmts.mark()
	for !p.at(phptoken.RBrace) && !p.at(phptoken.EOF) {
		if s := p.parseStmt(); s != nil {
			p.stmts.push(s)
		}
	}
	p.expect(phptoken.RBrace)
	return p.stmts.pop(base)
}

// parseBody parses either a braced block or a single statement, returning a
// Block either way.
func (p *Parser) parseBody() *phpast.Block {
	if p.at(phptoken.LBrace) {
		return p.parseBlock()
	}
	s := p.parseStmt()
	b := &phpast.Block{P: p.cur().Pos}
	if s != nil {
		b.P = s.Pos()
		b.Stmts = []phpast.Stmt{s}
	}
	return b
}

// parseAltBody parses statements until one of the given context-keyword
// identifiers (e.g. "endif") or keyword kinds appears, for the alternative
// colon syntax. The terminator is not consumed.
func (p *Parser) parseAltBody(endIdents ...string) *phpast.Block {
	b := &phpast.Block{P: p.cur().Pos}
	base := p.stmts.mark()
	for !p.at(phptoken.EOF) && !p.at(phptoken.KwElse) && !p.at(phptoken.KwElseif) && !p.atAnyIdent(endIdents) {
		if s := p.parseStmt(); s != nil {
			p.stmts.push(s)
		}
	}
	b.Stmts = p.stmts.pop(base)
	return b
}

func (p *Parser) atAnyIdent(lowers []string) bool {
	for _, id := range lowers {
		if p.atIdent(id) {
			return true
		}
	}
	return false
}

func (p *Parser) parseIf() phpast.Stmt {
	t := p.expect(phptoken.KwIf)
	p.expect(phptoken.LParen)
	cond := p.parseExpr()
	p.expect(phptoken.RParen)

	if p.accept(phptoken.Colon) {
		// Alternative syntax: if (...): ... elseif: ... else: ... endif;
		then := p.parseAltBody("endif")
		node := &phpast.If{P: t.Pos, Cond: cond, Then: then}
		cur := node
		for {
			if p.at(phptoken.KwElseif) {
				et := p.next()
				p.expect(phptoken.LParen)
				econd := p.parseExpr()
				p.expect(phptoken.RParen)
				p.expect(phptoken.Colon)
				ebody := p.parseAltBody("endif")
				nested := &phpast.If{P: et.Pos, Cond: econd, Then: ebody}
				cur.Else = nested
				cur = nested
				continue
			}
			if p.at(phptoken.KwElse) {
				p.next()
				p.expect(phptoken.Colon)
				cur.Else = p.parseAltBody("endif")
				break
			}
			break
		}
		if p.atIdent("endif") {
			p.next()
		} else {
			p.errorf("expected endif")
		}
		p.stmtEnd()
		return node
	}

	then := p.parseBody()
	node := &phpast.If{P: t.Pos, Cond: cond, Then: then}
	if p.at(phptoken.KwElseif) {
		// Re-enter as a nested if: elseif (c) ... == else { if (c) ... }.
		p.tok.Kind = phptoken.KwIf
		node.Else = p.parseIf()
		return node
	}
	if p.accept(phptoken.KwElse) {
		if p.at(phptoken.KwIf) {
			node.Else = p.parseIf()
		} else {
			node.Else = p.parseBody()
		}
	}
	return node
}

func (p *Parser) parseWhile() phpast.Stmt {
	t := p.expect(phptoken.KwWhile)
	p.expect(phptoken.LParen)
	cond := p.parseExpr()
	p.expect(phptoken.RParen)
	if p.accept(phptoken.Colon) {
		body := p.parseAltBody("endwhile")
		if p.atIdent("endwhile") {
			p.next()
		}
		p.stmtEnd()
		return &phpast.While{P: t.Pos, Cond: cond, Body: body}
	}
	return &phpast.While{P: t.Pos, Cond: cond, Body: p.parseBody()}
}

func (p *Parser) parseDoWhile() phpast.Stmt {
	t := p.expect(phptoken.KwDo)
	body := p.parseBody()
	p.expect(phptoken.KwWhile)
	p.expect(phptoken.LParen)
	cond := p.parseExpr()
	p.expect(phptoken.RParen)
	p.stmtEnd()
	return &phpast.DoWhile{P: t.Pos, Body: body, Cond: cond}
}

func (p *Parser) parseFor() phpast.Stmt {
	t := p.expect(phptoken.KwFor)
	p.expect(phptoken.LParen)
	var init, cond, post []phpast.Expr
	for !p.at(phptoken.Semicolon) && !p.at(phptoken.EOF) {
		init = append(init, p.parseExpr())
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	p.expect(phptoken.Semicolon)
	for !p.at(phptoken.Semicolon) && !p.at(phptoken.EOF) {
		cond = append(cond, p.parseExpr())
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	p.expect(phptoken.Semicolon)
	for !p.at(phptoken.RParen) && !p.at(phptoken.EOF) {
		post = append(post, p.parseExpr())
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	p.expect(phptoken.RParen)
	if p.accept(phptoken.Colon) {
		body := p.parseAltBody("endfor")
		if p.atIdent("endfor") {
			p.next()
		}
		p.stmtEnd()
		return &phpast.For{P: t.Pos, Init: init, Cond: cond, Post: post, Body: body}
	}
	return &phpast.For{P: t.Pos, Init: init, Cond: cond, Post: post, Body: p.parseBody()}
}

func (p *Parser) parseForeach() phpast.Stmt {
	t := p.expect(phptoken.KwForeach)
	p.expect(phptoken.LParen)
	arr := p.parseExpr()
	p.expect(phptoken.KwAs)
	byRef := p.accept(phptoken.Amp)
	first := p.parseExpr()
	node := &phpast.Foreach{P: t.Pos, Arr: arr, Val: first, ByRef: byRef}
	if p.accept(phptoken.DArrow) {
		node.Key = first
		node.ByRef = p.accept(phptoken.Amp)
		node.Val = p.parseExpr()
	}
	p.expect(phptoken.RParen)
	if p.accept(phptoken.Colon) {
		node.Body = p.parseAltBody("endforeach")
		if p.atIdent("endforeach") {
			p.next()
		}
		p.stmtEnd()
		return node
	}
	node.Body = p.parseBody()
	return node
}

func (p *Parser) parseSwitch() phpast.Stmt {
	t := p.expect(phptoken.KwSwitch)
	p.expect(phptoken.LParen)
	subj := p.parseExpr()
	p.expect(phptoken.RParen)
	node := &phpast.Switch{P: t.Pos, Subject: subj}
	alt := false
	if p.accept(phptoken.Colon) {
		alt = true
	} else {
		p.expect(phptoken.LBrace)
	}
	done := func() bool {
		if alt {
			return p.atIdent("endswitch") || p.at(phptoken.EOF)
		}
		return p.at(phptoken.RBrace) || p.at(phptoken.EOF)
	}
	for !done() {
		switch {
		case p.at(phptoken.KwCase):
			ct := p.next()
			cond := p.parseExpr()
			if !p.accept(phptoken.Colon) {
				p.accept(phptoken.Semicolon)
			}
			node.Cases = append(node.Cases, phpast.SwitchCase{P: ct.Pos, Cond: cond, Stmts: p.parseCaseStmts(done)})
		case p.at(phptoken.KwDefault):
			dt := p.next()
			if !p.accept(phptoken.Colon) {
				p.accept(phptoken.Semicolon)
			}
			node.Cases = append(node.Cases, phpast.SwitchCase{P: dt.Pos, Stmts: p.parseCaseStmts(done)})
		default:
			p.errorf("expected case or default in switch")
			p.sync()
		}
	}
	if alt {
		if p.atIdent("endswitch") {
			p.next()
		}
		p.stmtEnd()
	} else {
		p.expect(phptoken.RBrace)
	}
	return node
}

// parseCaseStmts parses a switch case's statements, up to the next case,
// default or the end of the switch.
func (p *Parser) parseCaseStmts(done func() bool) []phpast.Stmt {
	base := p.stmts.mark()
	for !p.at(phptoken.KwCase) && !p.at(phptoken.KwDefault) && !done() {
		if s := p.parseStmt(); s != nil {
			p.stmts.push(s)
		}
	}
	return p.stmts.pop(base)
}

func (p *Parser) parseStaticVars() phpast.Stmt {
	t := p.expect(phptoken.KwStatic)
	node := &phpast.StaticVars{P: t.Pos}
	for {
		v := p.expect(phptoken.Variable)
		node.Names = append(node.Names, v.Value)
		var init phpast.Expr
		if p.accept(phptoken.Assign) {
			init = p.parseExpr()
		}
		node.Inits = append(node.Inits, init)
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	p.stmtEnd()
	return node
}

func (p *Parser) parseParams() []phpast.Param {
	p.expect(phptoken.LParen)
	base := p.params.mark()
	for !p.at(phptoken.RParen) && !p.at(phptoken.EOF) {
		var prm phpast.Param
		prm.P = p.cur().Pos
		// Optional type hint: identifier, array, ?type, or namespaced name.
		p.accept(phptoken.Quest)
		if p.at(phptoken.Ident) || p.at(phptoken.KwArray) || p.at(phptoken.Bslash) {
			var tb strings.Builder
			for p.at(phptoken.Ident) || p.at(phptoken.KwArray) || p.at(phptoken.Bslash) {
				tk := p.next()
				if tk.Kind == phptoken.Bslash {
					tb.WriteByte('\\')
				} else if tk.Kind == phptoken.KwArray {
					tb.WriteString("array")
				} else {
					tb.WriteString(tk.Value)
				}
			}
			prm.Type = strings.ToLower(tb.String())
		}
		if p.accept(phptoken.Amp) {
			prm.ByRef = true
		}
		if p.at(phptoken.Concat) && p.peek(1).Kind == phptoken.Concat {
			// "..." lexes as Concat Concat Concat.
			p.next()
			p.next()
			p.accept(phptoken.Concat)
			prm.Variadic = true
		}
		v := p.expect(phptoken.Variable)
		prm.Name = v.Value
		if p.accept(phptoken.Assign) {
			prm.Default = p.parseExpr()
		}
		p.params.push(prm)
		if !p.accept(phptoken.Comma) {
			break
		}
	}
	params := p.params.pop(base)
	p.expect(phptoken.RParen)
	// Optional return type ": ?Foo".
	if p.accept(phptoken.Colon) {
		p.accept(phptoken.Quest)
		for p.at(phptoken.Ident) || p.at(phptoken.KwArray) || p.at(phptoken.Bslash) || p.at(phptoken.KwStatic) || p.at(phptoken.KwNull) {
			p.next()
		}
	}
	return params
}

func (p *Parser) parseFuncDecl() phpast.Stmt {
	t := p.expect(phptoken.KwFunction)
	p.accept(phptoken.Amp) // return-by-reference
	name := p.expect(phptoken.Ident).Value
	params := p.parseParams()
	body := p.parseBlockStmts()
	return &phpast.FuncDecl{P: t.Pos, Name: name, Params: params, Body: body, EndLine: p.prevLine}
}

func (p *Parser) parseClassDecl(modified bool) phpast.Stmt {
	isInterface := p.at(phptoken.KwInterface)
	t := p.next() // class or interface
	_ = modified
	name := p.expect(phptoken.Ident).Value
	node := &phpast.ClassDecl{P: t.Pos, Name: name, Consts: map[string]phpast.Expr{}, IsInterface: isInterface}
	if p.accept(phptoken.KwExtends) {
		node.Parent = p.parseQualifiedName()
	}
	if p.accept(phptoken.KwImplements) {
		for {
			node.Interfaces = append(node.Interfaces, p.parseQualifiedName())
			if !p.accept(phptoken.Comma) {
				break
			}
		}
	}
	p.expect(phptoken.LBrace)
	for !p.at(phptoken.RBrace) && !p.at(phptoken.EOF) {
		p.parseClassMember(node)
	}
	p.expect(phptoken.RBrace)
	node.EndLine = p.prevLine
	return node
}

func (p *Parser) parseQualifiedName() string {
	var sb strings.Builder
	for p.at(phptoken.Bslash) {
		p.next()
	}
	sb.WriteString(p.expect(phptoken.Ident).Value)
	for p.at(phptoken.Bslash) {
		p.next()
		sb.WriteByte('\\')
		sb.WriteString(p.expect(phptoken.Ident).Value)
	}
	return sb.String()
}

func (p *Parser) parseClassMember(cls *phpast.ClassDecl) {
	visibility := ""
	static := false
	for {
		switch p.cur().Kind {
		case phptoken.KwPublic:
			visibility = "public"
			p.next()
			continue
		case phptoken.KwPrivate:
			visibility = "private"
			p.next()
			continue
		case phptoken.KwProtected:
			visibility = "protected"
			p.next()
			continue
		case phptoken.KwStatic:
			static = true
			p.next()
			continue
		case phptoken.KwAbstract, phptoken.KwFinal, phptoken.KwVar:
			p.next()
			continue
		}
		break
	}
	switch p.cur().Kind {
	case phptoken.KwFunction:
		t := p.next()
		p.accept(phptoken.Amp)
		name := p.cur().Value
		// Method names may collide with keywords (e.g. "list", "print").
		p.next()
		params := p.parseParams()
		m := &phpast.ClassMethod{P: t.Pos, Name: name, Params: params, Static: static, Visibility: visibility}
		if p.at(phptoken.LBrace) {
			m.Body = p.parseBlockStmts()
		} else {
			p.stmtEnd() // abstract or interface method
		}
		m.EndLine = p.prevLine
		cls.Methods = append(cls.Methods, m)
	case phptoken.KwConst:
		p.next()
		for {
			cname := p.expect(phptoken.Ident).Value
			p.expect(phptoken.Assign)
			cls.Consts[cname] = p.parseExpr()
			if !p.accept(phptoken.Comma) {
				break
			}
		}
		p.stmtEnd()
	case phptoken.Variable:
		for {
			v := p.next()
			prop := &phpast.PropertyDecl{P: v.Pos, Name: v.Value, Static: static}
			if p.accept(phptoken.Assign) {
				prop.Default = p.parseExpr()
			}
			cls.Props = append(cls.Props, prop)
			if !p.accept(phptoken.Comma) {
				break
			}
		}
		p.stmtEnd()
	default:
		// Possibly a typed property "string $x;" — skip type then retry once.
		if p.at(phptoken.Ident) || p.at(phptoken.Quest) || p.at(phptoken.KwArray) {
			p.next()
			if p.at(phptoken.Variable) {
				p.parseClassMember(cls)
				return
			}
		}
		p.errorf("unexpected token %v in class body", p.cur().Kind)
		p.sync()
	}
}

func (p *Parser) parseTry() phpast.Stmt {
	t := p.expect(phptoken.KwTry)
	node := &phpast.Try{P: t.Pos, Body: p.parseBlock()}
	for p.at(phptoken.KwCatch) {
		ct := p.next()
		p.expect(phptoken.LParen)
		c := phpast.Catch{P: ct.Pos}
		for {
			c.Types = append(c.Types, p.parseQualifiedName())
			if !p.accept(phptoken.Pipe) {
				break
			}
		}
		if p.at(phptoken.Variable) {
			c.Var = p.next().Value
		}
		p.expect(phptoken.RParen)
		c.Body = p.parseBlock()
		node.Catches = append(node.Catches, c)
	}
	if p.accept(phptoken.KwFinally) {
		node.Finally = p.parseBlock()
	}
	return node
}
