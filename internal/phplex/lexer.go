// Package phplex implements a lexer for the PHP dialect accepted by this
// repository. It tokenizes mixed HTML/PHP sources, handling the <?php / ?>
// mode switches, all three string forms (single-quoted, double-quoted,
// heredoc/nowdoc), comments, and PHP's case-insensitive keywords.
package phplex

import (
	"fmt"
	"strings"

	"repro/internal/phptoken"
)

// Lexer scans a single PHP source file into tokens. Create one with New and
// call Next until it returns a token with Kind == phptoken.EOF.
//
// Token values for identifiers, variables, numbers without separators,
// inline HTML, heredoc bodies and escape-free strings are substrings of the
// source, so scanning them allocates nothing.
type Lexer struct {
	src  string
	file string

	off       int // current byte offset
	line      int
	lineStart int // offset of the first byte of the current line

	inPHP bool // false: scanning inline HTML

	errs []error
}

// New returns a Lexer for src. file is used in error messages only.
func New(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1}
}

// Errors returns lexical errors accumulated so far. Lexing continues after
// errors: the offending byte is skipped.
func (l *Lexer) Errors() []error { return l.errs }

func (l *Lexer) errorf(p phptoken.Pos, format string, args ...any) {
	l.errs = append(l.errs, fmt.Errorf("%s:%s: %s", l.file, p, fmt.Sprintf(format, args...)))
}

// pos returns the current position. Columns count bytes from 1.
func (l *Lexer) pos() phptoken.Pos {
	return phptoken.Pos{Offset: l.off, Line: l.line, Col: l.off - l.lineStart + 1}
}

// at returns the byte at offset i, or 0 past the end of the source.
func (l *Lexer) at(i int) byte {
	if i >= len(l.src) {
		return 0
	}
	return l.src[i]
}

// moveTo advances the lexer to offset end, counting the newlines in
// between.
func (l *Lexer) moveTo(end int) {
	for {
		i := strings.IndexByte(l.src[l.off:end], '\n')
		if i < 0 {
			break
		}
		l.off += i + 1
		l.line++
		l.lineStart = l.off
	}
	l.off = end
}

// Next returns the next token. After the end of input it returns EOF tokens
// forever.
func (l *Lexer) Next() phptoken.Token {
	if !l.inPHP {
		return l.scanHTML()
	}
	l.skipSpaceAndComments()
	start := l.pos()
	if l.off >= len(l.src) {
		return phptoken.Token{Kind: phptoken.EOF, Pos: start}
	}
	c := l.src[l.off]
	switch {
	case identStart[c]:
		name := l.scanIdentText()
		return phptoken.Token{Kind: phptoken.Lookup(name), Value: name, Pos: start}
	case c == '$':
		l.off++
		if identStart[l.at(l.off)] {
			return phptoken.Token{Kind: phptoken.Variable, Value: l.scanIdentText(), Pos: start}
		}
		return phptoken.Token{Kind: phptoken.Dollar, Pos: start}
	case isDigit(c), c == '.' && isDigit(l.at(l.off+1)):
		return l.scanNumber(start)
	case c == '\'':
		return l.scanSingleQuoted(start)
	case c == '"':
		return l.scanDoubleQuoted(start)
	case c == '`':
		// Shell-exec string: lex like a double-quoted string; the parser
		// treats it as an opaque literal.
		return l.scanBacktick(start)
	case c == '?' && l.at(l.off+1) == '>':
		l.off += 2
		l.inPHP = false
		// PHP swallows one newline immediately after ?>.
		if l.at(l.off) == '\n' {
			l.moveTo(l.off + 1)
		}
		return phptoken.Token{Kind: phptoken.CloseTag, Pos: start}
	case c == '<' && strings.HasPrefix(l.src[l.off:], "<<<"):
		return l.scanHeredoc(start)
	}
	if k := l.scanOperator(); k != phptoken.Invalid {
		return phptoken.Token{Kind: k, Pos: start}
	}
	l.errorf(start, "unexpected character %q", c)
	l.moveTo(l.off + 1)
	return phptoken.Token{Kind: phptoken.Invalid, Value: string(c), Pos: start}
}

// Tokens scans the entire remaining input and returns all tokens including
// the final EOF token.
func (l *Lexer) Tokens() []phptoken.Token {
	// Real PHP averages about 3.5 source bytes per token; a third of the
	// remaining length rarely needs to grow.
	toks := make([]phptoken.Token, 0, (len(l.src)-l.off)/3+2)
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == phptoken.EOF {
			return toks
		}
	}
}

func (l *Lexer) scanHTML() phptoken.Token {
	start := l.pos()
	if l.off >= len(l.src) {
		return phptoken.Token{Kind: phptoken.EOF, Pos: start}
	}
	end := len(l.src)
	if i := strings.Index(l.src[l.off:], "<?"); i >= 0 {
		end = l.off + i
	}
	if end > l.off {
		text := l.src[l.off:end]
		l.moveTo(end)
		return phptoken.Token{Kind: phptoken.InlineHTML, Value: text, Pos: start}
	}
	// At "<?". Open tags never span lines, so plain offset moves suffice.
	l.inPHP = true
	switch {
	case len(l.src)-l.off >= 5 && strings.EqualFold(l.src[l.off:l.off+5], "<?php"):
		l.off += 5
		return phptoken.Token{Kind: phptoken.OpenTag, Pos: start}
	case strings.HasPrefix(l.src[l.off:], "<?="):
		l.off += 3
		return phptoken.Token{Kind: phptoken.OpenEcho, Pos: start}
	}
	// Short open tag "<?".
	l.off += 2
	return phptoken.Token{Kind: phptoken.OpenTag, Pos: start}
}

func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		switch c := l.src[l.off]; c {
		case '\n':
			l.off++
			l.line++
			l.lineStart = l.off
		case ' ', '\t', '\r':
			l.off++
		case '#':
			l.skipLineComment()
		case '/':
			switch l.at(l.off + 1) {
			case '/':
				l.skipLineComment()
			case '*':
				l.skipBlockComment()
			default:
				return
			}
		default:
			return
		}
	}
}

// skipLineComment consumes a // or # comment. Per PHP, a line comment ends
// at a newline (which is consumed) or at a closing ?> tag (which is not).
func (l *Lexer) skipLineComment() {
	rest := l.src[l.off:]
	if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
		rest = rest[:nl]
	}
	if i := strings.Index(rest, "?>"); i >= 0 {
		l.off += i
		return
	}
	l.skipLine()
}

// skipLine moves past the next newline, or to the end of input.
func (l *Lexer) skipLine() {
	i := strings.IndexByte(l.src[l.off:], '\n')
	if i < 0 {
		l.off = len(l.src)
		return
	}
	l.off += i + 1
	l.line++
	l.lineStart = l.off
}

func (l *Lexer) skipBlockComment() {
	p := l.pos()
	if i := strings.Index(l.src[l.off+2:], "*/"); i >= 0 {
		l.moveTo(l.off + 2 + i + 2)
		return
	}
	l.moveTo(len(l.src))
	l.errorf(p, "unterminated block comment")
}

// Byte classes for the scanner's hot loops. Every byte at or above 0x80
// counts as an identifier byte, as in PHP, so UTF-8 names lex whole.
var identStart, identPart = func() (start, part [256]bool) {
	for c := 0; c < 256; c++ {
		start[c] = c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
		part[c] = start[c] || (c >= '0' && c <= '9')
	}
	return
}()

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// scanIdentText consumes an identifier (possibly empty) and returns its
// text. Identifiers never contain newlines.
func (l *Lexer) scanIdentText() string {
	start := l.off
	for l.off < len(l.src) && identPart[l.src[l.off]] {
		l.off++
	}
	return l.src[start:l.off]
}

// scanNumber scans an integer or float literal. Numbers never contain
// newlines, so the scan runs on a local offset.
func (l *Lexer) scanNumber(start phptoken.Pos) phptoken.Token {
	begin := l.off
	i := begin
	kind := phptoken.IntLit
	if l.src[i] == '0' {
		switch l.at(i + 1) {
		case 'x', 'X':
			i += 2
			for isHexDigit(l.at(i)) || l.at(i) == '_' {
				i++
			}
			l.off = i
			return phptoken.Token{Kind: kind, Value: l.src[begin:i], Pos: start}
		case 'b', 'B':
			i += 2
			for c := l.at(i); c == '0' || c == '1' || c == '_'; c = l.at(i) {
				i++
			}
			l.off = i
			return phptoken.Token{Kind: kind, Value: l.src[begin:i], Pos: start}
		}
	}
	for c := l.at(i); isDigit(c) || c == '_'; c = l.at(i) {
		i++
	}
	if l.at(i) == '.' && isDigit(l.at(i+1)) {
		kind = phptoken.FloatLit
		i++
		for c := l.at(i); isDigit(c) || c == '_'; c = l.at(i) {
			i++
		}
	}
	if c := l.at(i); c == 'e' || c == 'E' {
		next := l.at(i + 1)
		if isDigit(next) || ((next == '+' || next == '-') && isDigit(l.at(i+2))) {
			kind = phptoken.FloatLit
			i++
			if c := l.at(i); c == '+' || c == '-' {
				i++
			}
			for isDigit(l.at(i)) {
				i++
			}
		}
	}
	l.off = i
	return phptoken.Token{Kind: kind, Value: strings.ReplaceAll(l.src[begin:i], "_", ""), Pos: start}
}

// scanSingleQuoted scans a single-quoted string. Only \' and \\ are
// escapes; every other backslash is literal, so a string without those two
// sequences is returned as a substring of the source.
func (l *Lexer) scanSingleQuoted(start phptoken.Pos) phptoken.Token {
	begin := l.off + 1 // past the opening quote
	i, end := begin, -1
	escaped := false
	for i < len(l.src) {
		c := l.src[i]
		if c == '\'' {
			end = i
			break
		}
		if c == '\\' {
			if n := l.at(i + 1); n == '\'' || n == '\\' {
				escaped = true
				i += 2
				continue
			}
		}
		i++
	}
	body := l.src[begin:i]
	if end < 0 {
		l.moveTo(len(l.src))
		l.errorf(start, "unterminated string literal")
	} else {
		l.moveTo(end + 1)
	}
	if escaped {
		body = singleQuotedEscapes.Replace(body)
	}
	return phptoken.Token{Kind: phptoken.StringLit, Value: body, Pos: start}
}

// singleQuotedEscapes decodes the \' and \\ escapes of a single-quoted
// string body. Replacement scans left to right, so "\\'" is a backslash
// followed by a quote.
var singleQuotedEscapes = strings.NewReplacer(`\\`, `\`, `\'`, `'`)

func (l *Lexer) scanDoubleQuoted(start phptoken.Pos) phptoken.Token {
	begin := l.off + 1 // past the opening quote
	i := begin
	interp := false
	for {
		if i >= len(l.src) {
			l.errorf(start, "unterminated string literal")
			break
		}
		c := l.src[i]
		if c == '"' {
			break
		}
		switch c {
		case '\\':
			i += 2
			continue
		case '$':
			if n := l.at(i + 1); identStart[n] || n == '{' {
				interp = true
			}
		case '{':
			if l.at(i+1) == '$' {
				interp = true
			}
		}
		i++
	}
	i = min(i, len(l.src))
	raw := l.src[begin:i]
	l.moveTo(min(i+1, len(l.src))) // past the closing quote, if any
	if interp {
		return phptoken.Token{Kind: phptoken.StringInterp, Value: raw, Pos: start}
	}
	return phptoken.Token{Kind: phptoken.StringLit, Value: DecodeEscapes(raw), Pos: start}
}

func (l *Lexer) scanBacktick(start phptoken.Pos) phptoken.Token {
	begin := l.off + 1 // past the opening backtick
	i := begin
	for i < len(l.src) && l.src[i] != '`' {
		if l.src[i] == '\\' {
			i++
		}
		i++
	}
	i = min(i, len(l.src))
	raw := l.src[begin:i]
	l.moveTo(min(i+1, len(l.src))) // past the closing backtick, if any
	return phptoken.Token{Kind: phptoken.StringLit, Value: DecodeEscapes(raw), Pos: start}
}

func (l *Lexer) scanHeredoc(start phptoken.Pos) phptoken.Token {
	l.off += 3 // <<<
	for c := l.at(l.off); c == ' ' || c == '\t'; c = l.at(l.off) {
		l.off++
	}
	nowdoc := false
	quoted := false
	switch l.at(l.off) {
	case '\'':
		nowdoc = true
		l.off++
	case '"':
		quoted = true
		l.off++
	}
	label := l.scanIdentText()
	if label == "" {
		l.errorf(start, "missing heredoc label")
	}
	if nowdoc || quoted {
		if c := l.at(l.off); c == '\'' || c == '"' {
			l.off++
		}
	}
	l.skipLine()
	// The body is every whole line before the terminator line, so it is a
	// substring of the source.
	bodyStart := l.off
	for l.off < len(l.src) {
		// Check for terminator at start of line (allowing leading whitespace
		// per PHP 7.3+ flexible heredoc).
		j := l.off
		for c := l.at(j); c == ' ' || c == '\t'; c = l.at(j) {
			j++
		}
		if strings.HasPrefix(l.src[j:], label) && !identPart[l.at(j+len(label))] {
			body := strings.TrimSuffix(l.src[bodyStart:l.off], "\n")
			l.off = j + len(label)
			if nowdoc {
				return phptoken.Token{Kind: phptoken.StringLit, Value: body, Pos: start}
			}
			if strings.IndexByte(body, '$') >= 0 {
				return phptoken.Token{Kind: phptoken.StringInterp, Value: body, Pos: start}
			}
			return phptoken.Token{Kind: phptoken.StringLit, Value: DecodeEscapes(body), Pos: start}
		}
		// Not a terminator: the line belongs to the body.
		l.skipLine()
	}
	l.errorf(start, "unterminated heredoc %q", label)
	return phptoken.Token{Kind: phptoken.StringLit, Value: l.src[bodyStart:], Pos: start}
}

// operator is one operator spelling and its token kind.
type operator struct {
	s string
	k phptoken.Kind
}

// operatorsByFirst lists, for each first byte, the operators starting with
// it, longest first, so the first prefix match is the longest match.
var operatorsByFirst = func() (t [256][]operator) {
	for _, op := range []operator{
		{"===", phptoken.Identical}, {"!==", phptoken.NotIdent},
		{"<=>", phptoken.Spaceship}, {"**=", phptoken.PowAssign},
		{"??=", phptoken.CoalAssign}, {"<<=", phptoken.ShlAssign},
		{">>=", phptoken.ShrAssign},

		{"==", phptoken.Eq}, {"!=", phptoken.NotEq}, {"<>", phptoken.NotEq},
		{"<=", phptoken.LtEq}, {">=", phptoken.GtEq},
		{"&&", phptoken.BoolAnd}, {"||", phptoken.BoolOr},
		{"++", phptoken.Inc}, {"--", phptoken.Dec},
		{"+=", phptoken.PlusAssign}, {"-=", phptoken.MinusAssign},
		{"*=", phptoken.MulAssign}, {"/=", phptoken.DivAssign},
		{"%=", phptoken.ModAssign}, {".=", phptoken.ConcatAssign},
		{"&=", phptoken.AndAssign}, {"|=", phptoken.OrAssign},
		{"^=", phptoken.XorAssign},
		{"**", phptoken.Pow}, {"??", phptoken.Coal},
		{"->", phptoken.Arrow}, {"=>", phptoken.DArrow},
		{"::", phptoken.Scope}, {"<<", phptoken.Shl}, {">>", phptoken.Shr},

		{";", phptoken.Semicolon}, {",", phptoken.Comma},
		{"(", phptoken.LParen}, {")", phptoken.RParen},
		{"{", phptoken.LBrace}, {"}", phptoken.RBrace},
		{"[", phptoken.LBracket}, {"]", phptoken.RBracket},
		{"=", phptoken.Assign}, {"+", phptoken.Plus}, {"-", phptoken.Minus},
		{"*", phptoken.Mul}, {"/", phptoken.Div}, {"%", phptoken.Mod},
		{".", phptoken.Concat}, {"<", phptoken.Lt}, {">", phptoken.Gt},
		{"!", phptoken.Not}, {"&", phptoken.Amp}, {"|", phptoken.Pipe},
		{"^", phptoken.Caret}, {"~", phptoken.Tilde}, {"?", phptoken.Quest},
		{":", phptoken.Colon}, {"@", phptoken.At}, {"\\", phptoken.Bslash},
	} {
		// The list is ordered by length, so appending keeps each bucket
		// longest first.
		t[op.s[0]] = append(t[op.s[0]], op)
	}
	return
}()

// scanOperator consumes the longest operator at the current offset and
// returns its kind, or returns Invalid, consuming nothing, when no
// operator starts there.
func (l *Lexer) scanOperator() phptoken.Kind {
	rest := l.src[l.off:]
	for _, op := range operatorsByFirst[rest[0]] {
		if strings.HasPrefix(rest, op.s) {
			l.off += len(op.s) // operators never contain newlines
			return op.k
		}
	}
	return phptoken.Invalid
}

// DecodeEscapes decodes double-quoted-string escape sequences in raw. It
// implements PHP's escape set: \n \t \r \v \f \e \\ \$ \" \xHH \NNN (octal)
// and \u{...}. Unknown escapes are kept verbatim (backslash included), as
// PHP does.
func DecodeEscapes(raw string) string {
	if !strings.Contains(raw, "\\") {
		return raw
	}
	var sb strings.Builder
	sb.Grow(len(raw))
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c != '\\' || i+1 >= len(raw) {
			sb.WriteByte(c)
			continue
		}
		i++
		switch raw[i] {
		case 'n':
			sb.WriteByte('\n')
		case 't':
			sb.WriteByte('\t')
		case 'r':
			sb.WriteByte('\r')
		case 'v':
			sb.WriteByte('\v')
		case 'f':
			sb.WriteByte('\f')
		case 'e':
			sb.WriteByte(0x1b)
		case '\\':
			sb.WriteByte('\\')
		case '$':
			sb.WriteByte('$')
		case '"':
			sb.WriteByte('"')
		case 'x':
			j := i + 1
			v := 0
			n := 0
			for j < len(raw) && n < 2 && isHexDigit(raw[j]) {
				v = v*16 + hexVal(raw[j])
				j++
				n++
			}
			if n == 0 {
				sb.WriteString("\\x")
			} else {
				sb.WriteByte(byte(v))
				i = j - 1
			}
		case '0', '1', '2', '3', '4', '5', '6', '7':
			j := i
			v := 0
			n := 0
			for j < len(raw) && n < 3 && raw[j] >= '0' && raw[j] <= '7' {
				v = v*8 + int(raw[j]-'0')
				j++
				n++
			}
			sb.WriteByte(byte(v))
			i = j - 1
		case 'u':
			// \u{H...} codepoint escape (PHP 7+). PHP raises a compile
			// error for empty braces and for codepoints beyond U+10FFFF;
			// a lexer cannot abort, so invalid sequences keep their
			// literal text instead of silently becoming U+0000 (empty
			// braces) or U+FFFD (rune(v) of an overflowed accumulator —
			// a long digit run used to wrap the int).
			if i+1 < len(raw) && raw[i+1] == '{' {
				j := i + 2
				v := 0
				n := 0
				for j < len(raw) && isHexDigit(raw[j]) {
					v = v*16 + hexVal(raw[j])
					if v > 0x10FFFF {
						// Saturate above the Unicode range: the value
						// stays invalid and the accumulator cannot
						// overflow no matter how many digits follow.
						v = 0x110000
					}
					j++
					n++
				}
				valid := j < len(raw) && raw[j] == '}' && n > 0 &&
					v <= 0x10FFFF && (v < 0xD800 || v > 0xDFFF)
				if valid {
					sb.WriteRune(rune(v))
					i = j
					continue
				}
			}
			sb.WriteString("\\u")
		default:
			sb.WriteByte('\\')
			sb.WriteByte(raw[i])
		}
	}
	return sb.String()
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}
