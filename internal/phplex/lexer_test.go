package phplex

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/phptoken"
)

// kinds extracts the kind sequence of all tokens excluding the final EOF.
func kinds(t *testing.T, src string) []phptoken.Kind {
	t.Helper()
	l := New("test.php", src)
	toks := l.Tokens()
	if len(l.Errors()) > 0 {
		t.Fatalf("lex errors: %v", l.Errors())
	}
	out := make([]phptoken.Kind, 0, len(toks)-1)
	for _, tk := range toks[:len(toks)-1] {
		out = append(out, tk.Kind)
	}
	return out
}

func values(t *testing.T, src string) []string {
	t.Helper()
	l := New("test.php", src)
	toks := l.Tokens()
	out := make([]string, 0, len(toks)-1)
	for _, tk := range toks[:len(toks)-1] {
		out = append(out, tk.Value)
	}
	return out
}

func TestLexBasicScript(t *testing.T) {
	src := "<?php $a = 1 + 2; ?>"
	want := []phptoken.Kind{
		phptoken.OpenTag, phptoken.Variable, phptoken.Assign,
		phptoken.IntLit, phptoken.Plus, phptoken.IntLit,
		phptoken.Semicolon, phptoken.CloseTag,
	}
	if got := kinds(t, src); !reflect.DeepEqual(got, want) {
		t.Errorf("kinds = %v, want %v", got, want)
	}
}

func TestLexInlineHTML(t *testing.T) {
	src := "<html>\n<?php echo 1; ?>\n</html>"
	got := kinds(t, src)
	want := []phptoken.Kind{
		phptoken.InlineHTML, phptoken.OpenTag, phptoken.KwEcho,
		phptoken.IntLit, phptoken.Semicolon, phptoken.CloseTag,
		phptoken.InlineHTML,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("kinds = %v, want %v", got, want)
	}
}

func TestLexOpenEchoTag(t *testing.T) {
	got := kinds(t, "<?= $x ?>")
	want := []phptoken.Kind{phptoken.OpenEcho, phptoken.Variable, phptoken.CloseTag}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("kinds = %v, want %v", got, want)
	}
}

func TestLexKeywordsCaseInsensitive(t *testing.T) {
	tests := []struct {
		src  string
		want phptoken.Kind
	}{
		{"<?php IF", phptoken.KwIf},
		{"<?php Function", phptoken.KwFunction},
		{"<?php RETURN", phptoken.KwReturn},
		{"<?php ELSEIF", phptoken.KwElseif},
		{"<?php foreach", phptoken.KwForeach},
		{"<?php TRUE", phptoken.KwTrue},
		{"<?php Null", phptoken.KwNull},
		{"<?php die", phptoken.KwExit},
		{"<?php exit", phptoken.KwExit},
		{"<?php AND", phptoken.AndKw},
		{"<?php myFunc", phptoken.Ident},
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			got := kinds(t, tt.src)
			if len(got) != 2 || got[1] != tt.want {
				t.Errorf("kinds = %v, want [OpenTag %v]", got, tt.want)
			}
		})
	}
}

func TestLexVariables(t *testing.T) {
	vals := values(t, "<?php $foo $_FILES $_bar9 $_GET")
	want := []string{"", "foo", "_FILES", "_bar9", "_GET"}
	if !reflect.DeepEqual(vals, want) {
		t.Errorf("values = %q, want %q", vals, want)
	}
}

func TestLexNumbers(t *testing.T) {
	tests := []struct {
		src  string
		kind phptoken.Kind
		val  string
	}{
		{"<?php 42", phptoken.IntLit, "42"},
		{"<?php 0x1F", phptoken.IntLit, "0x1F"},
		{"<?php 0b101", phptoken.IntLit, "0b101"},
		{"<?php 1_000", phptoken.IntLit, "1000"},
		{"<?php 3.14", phptoken.FloatLit, "3.14"},
		{"<?php 1e3", phptoken.FloatLit, "1e3"},
		{"<?php 2.5e-2", phptoken.FloatLit, "2.5e-2"},
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			l := New("t", tt.src)
			toks := l.Tokens()
			if toks[1].Kind != tt.kind || toks[1].Value != tt.val {
				t.Errorf("got %v %q, want %v %q", toks[1].Kind, toks[1].Value, tt.kind, tt.val)
			}
		})
	}
}

func TestLexStrings(t *testing.T) {
	tests := []struct {
		name string
		src  string
		kind phptoken.Kind
		val  string
	}{
		{"single", `<?php 'abc'`, phptoken.StringLit, "abc"},
		{"single escape quote", `<?php 'a\'b'`, phptoken.StringLit, "a'b"},
		{"single keeps backslash", `<?php 'a\nb'`, phptoken.StringLit, `a\nb`},
		{"double plain", `<?php "abc"`, phptoken.StringLit, "abc"},
		{"double newline", `<?php "a\nb"`, phptoken.StringLit, "a\nb"},
		{"double tab", `<?php "a\tb"`, phptoken.StringLit, "a\tb"},
		{"double escaped dollar", `<?php "a\$b"`, phptoken.StringLit, "a$b"},
		{"double hex", `<?php "\x41"`, phptoken.StringLit, "A"},
		{"double octal", `<?php "\101"`, phptoken.StringLit, "A"},
		{"double unicode", `<?php "\u{48}"`, phptoken.StringLit, "H"},
		{"interp var", `<?php "a $b c"`, phptoken.StringInterp, "a $b c"},
		{"interp braces", `<?php "x{$a['k']}y"`, phptoken.StringInterp, "x{$a['k']}y"},
		{"php ext", `<?php ".php"`, phptoken.StringLit, ".php"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			l := New("t", tt.src)
			toks := l.Tokens()
			if toks[1].Kind != tt.kind || toks[1].Value != tt.val {
				t.Errorf("got %v %q, want %v %q", toks[1].Kind, toks[1].Value, tt.kind, tt.val)
			}
		})
	}
}

func TestLexHeredoc(t *testing.T) {
	src := "<?php $x = <<<EOT\nhello\nworld\nEOT;\n"
	l := New("t", src)
	toks := l.Tokens()
	if len(l.Errors()) > 0 {
		t.Fatalf("errors: %v", l.Errors())
	}
	// OpenTag Variable Assign StringLit Semicolon EOF
	if toks[3].Kind != phptoken.StringLit || toks[3].Value != "hello\nworld" {
		t.Errorf("heredoc token = %v", toks[3])
	}
}

func TestLexNowdoc(t *testing.T) {
	src := "<?php $x = <<<'EOT'\nno $interp here\nEOT;\n"
	l := New("t", src)
	toks := l.Tokens()
	if toks[3].Kind != phptoken.StringLit || toks[3].Value != "no $interp here" {
		t.Errorf("nowdoc token = %v", toks[3])
	}
}

func TestLexHeredocInterp(t *testing.T) {
	src := "<?php $x = <<<EOT\nhello $name\nEOT;\n"
	l := New("t", src)
	toks := l.Tokens()
	if toks[3].Kind != phptoken.StringInterp {
		t.Errorf("heredoc with $var should be StringInterp, got %v", toks[3])
	}
}

func TestLexComments(t *testing.T) {
	src := "<?php // line\n# hash\n/* block\nmulti */ $a;"
	got := kinds(t, src)
	want := []phptoken.Kind{phptoken.OpenTag, phptoken.Variable, phptoken.Semicolon}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("kinds = %v, want %v", got, want)
	}
}

func TestLexLineCommentEndsAtCloseTag(t *testing.T) {
	src := "<?php // comment ?> html"
	got := kinds(t, src)
	want := []phptoken.Kind{phptoken.OpenTag, phptoken.CloseTag, phptoken.InlineHTML}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("kinds = %v, want %v", got, want)
	}
}

func TestLexOperators(t *testing.T) {
	src := "<?php === !== <=> ** ??= ?? -> => :: && || == != <= >= . ++ -- <<= >>= << >>"
	got := kinds(t, src)
	want := []phptoken.Kind{
		phptoken.OpenTag,
		phptoken.Identical, phptoken.NotIdent, phptoken.Spaceship,
		phptoken.Pow, phptoken.CoalAssign, phptoken.Coal,
		phptoken.Arrow, phptoken.DArrow, phptoken.Scope,
		phptoken.BoolAnd, phptoken.BoolOr, phptoken.Eq, phptoken.NotEq,
		phptoken.LtEq, phptoken.GtEq, phptoken.Concat,
		phptoken.Inc, phptoken.Dec,
		phptoken.ShlAssign, phptoken.ShrAssign, phptoken.Shl, phptoken.Shr,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("kinds = %v, want %v", got, want)
	}
}

func TestLexAngleNotEq(t *testing.T) {
	got := kinds(t, "<?php 1 <> 2")
	want := []phptoken.Kind{phptoken.OpenTag, phptoken.IntLit, phptoken.NotEq, phptoken.IntLit}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("kinds = %v, want %v", got, want)
	}
}

func TestLexPositions(t *testing.T) {
	src := "<?php\n$a = 1;\n$b = 2;"
	l := New("t", src)
	toks := l.Tokens()
	// toks: OpenTag $a = 1 ; $b = 2 EOF
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 1 {
		t.Errorf("$a pos = %v, want 2:1", toks[1].Pos)
	}
	if toks[5].Pos.Line != 3 || toks[5].Pos.Col != 1 {
		t.Errorf("$b pos = %v, want 3:1", toks[5].Pos)
	}
}

func TestLexCloseTagSwallowsNewline(t *testing.T) {
	src := "<?php ?>\nX"
	l := New("t", src)
	toks := l.Tokens()
	// InlineHTML should be "X" without the leading newline.
	var html string
	for _, tk := range toks {
		if tk.Kind == phptoken.InlineHTML {
			html = tk.Value
		}
	}
	if html != "X" {
		t.Errorf("html = %q, want \"X\"", html)
	}
}

func TestLexUnterminatedString(t *testing.T) {
	l := New("t", `<?php "abc`)
	l.Tokens()
	if len(l.Errors()) == 0 {
		t.Error("expected error for unterminated string")
	}
}

func TestLexEOFForever(t *testing.T) {
	l := New("t", "<?php")
	for i := 0; i < 3; i++ {
		if tok := l.Next(); i > 0 && tok.Kind != phptoken.EOF {
			t.Fatalf("Next after EOF = %v", tok)
		}
	}
}

func TestSplitInterp(t *testing.T) {
	tests := []struct {
		name string
		raw  string
		want []Segment
	}{
		{
			"simple var",
			"a $b c",
			[]Segment{{Kind: SegText, Text: "a "}, {Kind: SegVar, Name: "b"}, {Kind: SegText, Text: " c"}},
		},
		{
			"var index bare",
			"$f[name]",
			[]Segment{{Kind: SegVarIndex, Name: "f", Index: "name"}},
		},
		{
			"var index quoted complex",
			"{$f['name']}",
			[]Segment{{Kind: SegExpr, Text: "$f['name']"}},
		},
		{
			"var prop",
			"$obj->field!",
			[]Segment{{Kind: SegVarProp, Name: "obj", Prop: "field"}, {Kind: SegText, Text: "!"}},
		},
		{
			"legacy brace",
			"${name}",
			[]Segment{{Kind: SegVar, Name: "name"}},
		},
		{
			"escaped dollar",
			`\$x`,
			[]Segment{{Kind: SegText, Text: "$x"}},
		},
		{
			"adjacent",
			"$a$b",
			[]Segment{{Kind: SegVar, Name: "a"}, {Kind: SegVar, Name: "b"}},
		},
		{
			"text only",
			"plain",
			[]Segment{{Kind: SegText, Text: "plain"}},
		},
		{
			"dollar not var",
			"$ 5",
			[]Segment{{Kind: SegText, Text: "$ 5"}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := SplitInterp(tt.raw)
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("SplitInterp(%q) = %+v, want %+v", tt.raw, got, tt.want)
			}
		})
	}
}

func TestDecodeEscapesUnknownKept(t *testing.T) {
	if got := DecodeEscapes(`a\qb`); got != `a\qb` {
		t.Errorf("got %q", got)
	}
}

// TestDecodeEscapes pins PHP's escape semantics byte-for-byte, including
// the invalid-sequence edges PHP rejects at compile time: the lexer keeps
// those verbatim rather than smuggling in U+0000 / U+FFFD.
func TestDecodeEscapes(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want string
	}{
		// \xHH — one or two hex digits, case-insensitive.
		{"hex two digits", `\x41`, "A"},
		{"hex one digit", `\x9`, "\t"},
		{"hex stops after two", `\x414`, "A4"},
		{"hex lowercase", `\x2e` + "php", ".php"},
		{"hex uppercase", `\X` /* not an escape */, `\X`},
		{"hex no digits kept", `\xzz`, `\xzz`},
		{"hex high byte", `\xff`, "\xff"},
		// \NNN — one to three octal digits, mod 256.
		{"octal three", `\101`, "A"},
		{"octal one", `\0`, "\x00"},
		{"octal stops after three", `\1017`, "A7"},
		{"octal wraps mod 256", `\777`, "\xff"},
		// \u{...} — bounded codepoint.
		{"unicode basic", `\u{48}`, "H"},
		{"unicode multibyte", `\u{1F600}`, "\U0001F600"},
		{"unicode nul", `\u{0}`, "\x00"},
		{"unicode max", `\u{10FFFF}`, "\U0010FFFF"},
		{"unicode empty braces kept", `\u{}`, `\u{}`},
		{"unicode too large kept", `\u{110000}`, `\u{110000}`},
		{"unicode overflow run kept", `\u{FFFFFFFFFFFFFFFFFF41}`, `\u{FFFFFFFFFFFFFFFFFF41}`},
		{"unicode surrogate kept", `\u{D800}`, `\u{D800}`},
		{"unicode unterminated kept", `\u{48`, `\u{48`},
		{"unicode non-hex kept", `\u{zz}`, `\u{zz}`},
		{"unicode no brace kept", `\u48`, `\u48`},
		// Mixes.
		{"dotted ext via hex", `evil\x2e` + `php`, "evil.php"},
		{"mixed escapes", `\x41\102\u{43}`, "ABC"},
		{"trailing backslash", `a\`, `a\`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := DecodeEscapes(tt.in); got != tt.want {
				t.Errorf("DecodeEscapes(%q) = %q, want %q", tt.in, got, tt.want)
			}
		})
	}
}

// Property: lexing never panics and always terminates with EOF, for
// arbitrary input bytes.
func TestLexArbitraryInputTerminates(t *testing.T) {
	f := func(s string) bool {
		l := New("fuzz", "<?php "+s)
		toks := l.Tokens()
		return len(toks) > 0 && toks[len(toks)-1].Kind == phptoken.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: positions are monotonically non-decreasing in offset.
func TestLexPositionsMonotonic(t *testing.T) {
	f := func(s string) bool {
		l := New("fuzz", s)
		prev := -1
		for {
			tk := l.Next()
			if tk.Kind == phptoken.EOF {
				return true
			}
			if tk.Pos.Offset < prev {
				return false
			}
			prev = tk.Pos.Offset
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLexCRLFLineEndings(t *testing.T) {
	src := "<?php\r\n$a = 1;\r\n$b = 2;\r\n"
	l := New("t", src)
	toks := l.Tokens()
	if len(l.Errors()) > 0 {
		t.Fatalf("errors: %v", l.Errors())
	}
	// $b should be on line 3.
	var bLine int
	for _, tk := range toks {
		if tk.Kind == phptoken.Variable && tk.Value == "b" {
			bLine = tk.Pos.Line
		}
	}
	if bLine != 3 {
		t.Errorf("$b line = %d, want 3", bLine)
	}
}

func TestLexHeredocIndentedClose(t *testing.T) {
	src := "<?php $x = <<<EOT\n  body line\n  EOT;\n"
	l := New("t", src)
	toks := l.Tokens()
	if toks[3].Kind != phptoken.StringLit {
		t.Errorf("tok = %v", toks[3])
	}
}

func TestLexHeredocLabelPrefixNotTerminator(t *testing.T) {
	// "EOTX" must not terminate a heredoc labelled EOT.
	src := "<?php $x = <<<EOT\nEOTX keeps going\nEOT;\n"
	l := New("t", src)
	toks := l.Tokens()
	if toks[3].Value != "EOTX keeps going" {
		t.Errorf("heredoc body = %q", toks[3].Value)
	}
}

func TestLexBacktickString(t *testing.T) {
	l := New("t", "<?php $o = `ls -la`;")
	toks := l.Tokens()
	if toks[3].Kind != phptoken.StringLit || toks[3].Value != "ls -la" {
		t.Errorf("backtick = %v", toks[3])
	}
}

func TestLexShortOpenTag(t *testing.T) {
	got := kinds(t, "<? $x = 1; ?>")
	want := []phptoken.Kind{
		phptoken.OpenTag, phptoken.Variable, phptoken.Assign,
		phptoken.IntLit, phptoken.Semicolon, phptoken.CloseTag,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("kinds = %v", got)
	}
}

func TestLexDollarAlone(t *testing.T) {
	got := kinds(t, "<?php $ ;")
	want := []phptoken.Kind{phptoken.OpenTag, phptoken.Dollar, phptoken.Semicolon}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("kinds = %v", got)
	}
}

func TestLexInvalidByteRecovers(t *testing.T) {
	l := New("t", "<?php \x01 $x = 1;")
	toks := l.Tokens()
	if len(l.Errors()) == 0 {
		t.Error("expected lex error")
	}
	var sawVar bool
	for _, tk := range toks {
		if tk.Kind == phptoken.Variable {
			sawVar = true
		}
	}
	if !sawVar {
		t.Error("lexing did not recover after invalid byte")
	}
}

// TestLexKeywordFoldingASCIIOnly pins PHP's ASCII-only keyword folding.
// Unicode lower-casing maps U+212A KELVIN SIGN to 'k', which once made
// "brea\u212a" (ending in that sign) lex as the keyword break.
func TestLexKeywordFoldingASCIIOnly(t *testing.T) {
	tests := []struct {
		src  string
		want phptoken.Kind
	}{
		{"brea\u212a", phptoken.Ident},
		{"\u212aeyword", phptoken.Ident},
		{"i\u017f\u017fet", phptoken.Ident}, // U+017F LATIN SMALL LETTER LONG S folds to 's'
		{"BREAK", phptoken.KwBreak},
		{"Break", phptoken.KwBreak},
		{"break", phptoken.KwBreak},
		{"ISSET", phptoken.KwIsset},
		{"Include_Once", phptoken.KwIncludeOnce},
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			toks := New("kw.php", "<?php "+tt.src+";").Tokens()
			if got := toks[1]; got.Kind != tt.want || got.Value != tt.src {
				t.Errorf("token = %v %q, want %v %q", got.Kind, got.Value, tt.want, tt.src)
			}
		})
	}
}
