package phplex

import (
	"reflect"
	"testing"

	"repro/internal/phptoken"
)

// operatorCases has one case per operator spelling, plus the longest-match
// edges where a longer operator shares a prefix with shorter ones.
var operatorCases = []struct {
	src  string
	want []phptoken.Kind
}{
	// Three-byte operators.
	{"===", []phptoken.Kind{phptoken.Identical}},
	{"!==", []phptoken.Kind{phptoken.NotIdent}},
	{"<=>", []phptoken.Kind{phptoken.Spaceship}},
	{"**=", []phptoken.Kind{phptoken.PowAssign}},
	{"??=", []phptoken.Kind{phptoken.CoalAssign}},
	{"<<=", []phptoken.Kind{phptoken.ShlAssign}},
	{">>=", []phptoken.Kind{phptoken.ShrAssign}},

	// Two-byte operators.
	{"==", []phptoken.Kind{phptoken.Eq}},
	{"!=", []phptoken.Kind{phptoken.NotEq}},
	{"<>", []phptoken.Kind{phptoken.NotEq}},
	{"<=", []phptoken.Kind{phptoken.LtEq}},
	{">=", []phptoken.Kind{phptoken.GtEq}},
	{"&&", []phptoken.Kind{phptoken.BoolAnd}},
	{"||", []phptoken.Kind{phptoken.BoolOr}},
	{"++", []phptoken.Kind{phptoken.Inc}},
	{"--", []phptoken.Kind{phptoken.Dec}},
	{"+=", []phptoken.Kind{phptoken.PlusAssign}},
	{"-=", []phptoken.Kind{phptoken.MinusAssign}},
	{"*=", []phptoken.Kind{phptoken.MulAssign}},
	{"/=", []phptoken.Kind{phptoken.DivAssign}},
	{"%=", []phptoken.Kind{phptoken.ModAssign}},
	{".=", []phptoken.Kind{phptoken.ConcatAssign}},
	{"&=", []phptoken.Kind{phptoken.AndAssign}},
	{"|=", []phptoken.Kind{phptoken.OrAssign}},
	{"^=", []phptoken.Kind{phptoken.XorAssign}},
	{"**", []phptoken.Kind{phptoken.Pow}},
	{"??", []phptoken.Kind{phptoken.Coal}},
	{"->", []phptoken.Kind{phptoken.Arrow}},
	{"=>", []phptoken.Kind{phptoken.DArrow}},
	{"::", []phptoken.Kind{phptoken.Scope}},
	{"<<", []phptoken.Kind{phptoken.Shl}},
	{">>", []phptoken.Kind{phptoken.Shr}},

	// One-byte operators and punctuation.
	{";", []phptoken.Kind{phptoken.Semicolon}},
	{",", []phptoken.Kind{phptoken.Comma}},
	{"(", []phptoken.Kind{phptoken.LParen}},
	{")", []phptoken.Kind{phptoken.RParen}},
	{"{", []phptoken.Kind{phptoken.LBrace}},
	{"}", []phptoken.Kind{phptoken.RBrace}},
	{"[", []phptoken.Kind{phptoken.LBracket}},
	{"]", []phptoken.Kind{phptoken.RBracket}},
	{"=", []phptoken.Kind{phptoken.Assign}},
	{"+", []phptoken.Kind{phptoken.Plus}},
	{"-", []phptoken.Kind{phptoken.Minus}},
	{"*", []phptoken.Kind{phptoken.Mul}},
	{"/", []phptoken.Kind{phptoken.Div}},
	{"%", []phptoken.Kind{phptoken.Mod}},
	{".", []phptoken.Kind{phptoken.Concat}},
	{"<", []phptoken.Kind{phptoken.Lt}},
	{">", []phptoken.Kind{phptoken.Gt}},
	{"!", []phptoken.Kind{phptoken.Not}},
	{"&", []phptoken.Kind{phptoken.Amp}},
	{"|", []phptoken.Kind{phptoken.Pipe}},
	{"^", []phptoken.Kind{phptoken.Caret}},
	{"~", []phptoken.Kind{phptoken.Tilde}},
	{"?", []phptoken.Kind{phptoken.Quest}},
	{":", []phptoken.Kind{phptoken.Colon}},
	{"@", []phptoken.Kind{phptoken.At}},
	{`\`, []phptoken.Kind{phptoken.Bslash}},
	{"$", []phptoken.Kind{phptoken.Dollar}},

	// Longest-match edges.
	{"<=>=", []phptoken.Kind{phptoken.Spaceship, phptoken.Assign}},
	{"<= >", []phptoken.Kind{phptoken.LtEq, phptoken.Gt}},
	{"< =", []phptoken.Kind{phptoken.Lt, phptoken.Assign}},
	{"**==", []phptoken.Kind{phptoken.PowAssign, phptoken.Assign}},
	{"***", []phptoken.Kind{phptoken.Pow, phptoken.Mul}},
	{"* *", []phptoken.Kind{phptoken.Mul, phptoken.Mul}},
	{"???", []phptoken.Kind{phptoken.Coal, phptoken.Quest}},
	{"???=", []phptoken.Kind{phptoken.Coal, phptoken.Quest, phptoken.Assign}},
	{"? ?", []phptoken.Kind{phptoken.Quest, phptoken.Quest}},
	{"!===", []phptoken.Kind{phptoken.NotIdent, phptoken.Assign}},
	{"!= =", []phptoken.Kind{phptoken.NotEq, phptoken.Assign}},
	{"!!", []phptoken.Kind{phptoken.Not, phptoken.Not}},
	{"====", []phptoken.Kind{phptoken.Identical, phptoken.Assign}},
	{"==>", []phptoken.Kind{phptoken.Eq, phptoken.Gt}},
	{"<<==", []phptoken.Kind{phptoken.ShlAssign, phptoken.Assign}},
	{"<< <", []phptoken.Kind{phptoken.Shl, phptoken.Lt}},
	{"<<<EOT\nx\nEOT;", []phptoken.Kind{phptoken.StringLit, phptoken.Semicolon}},
	{"1<<=2", []phptoken.Kind{phptoken.IntLit, phptoken.ShlAssign, phptoken.IntLit}},
	{">>>=", []phptoken.Kind{phptoken.Shr, phptoken.GtEq}},
	{"->>", []phptoken.Kind{phptoken.Arrow, phptoken.Gt}},
	{"- >", []phptoken.Kind{phptoken.Minus, phptoken.Gt}},
	{"-->", []phptoken.Kind{phptoken.Dec, phptoken.Gt}},
	{"-=>", []phptoken.Kind{phptoken.MinusAssign, phptoken.Gt}},
	{":::", []phptoken.Kind{phptoken.Scope, phptoken.Colon}},
	{": :", []phptoken.Kind{phptoken.Colon, phptoken.Colon}},
	{"...", []phptoken.Kind{phptoken.Concat, phptoken.Concat, phptoken.Concat}},
	{"&&=", []phptoken.Kind{phptoken.BoolAnd, phptoken.Assign}},
	{"|||", []phptoken.Kind{phptoken.BoolOr, phptoken.Pipe}},
	{"+++", []phptoken.Kind{phptoken.Inc, phptoken.Plus}},
	{"? >", []phptoken.Kind{phptoken.Quest, phptoken.Gt}},
	{"??>", []phptoken.Kind{phptoken.Coal, phptoken.Gt}},
	{"? ?>", []phptoken.Kind{phptoken.Quest, phptoken.CloseTag}},
	{"?>", []phptoken.Kind{phptoken.CloseTag}},
}

// TestLexOperatorTable lexes every operator alone and every longest-match
// edge, checking the kind sequence, that operators carry no value, and
// that each token's position is its byte offset in the source.
func TestLexOperatorTable(t *testing.T) {
	const prefix = "<?php "
	for _, tc := range operatorCases {
		t.Run(tc.src, func(t *testing.T) {
			l := New("op.php", prefix+tc.src)
			toks := l.Tokens()
			if errs := l.Errors(); len(errs) > 0 {
				t.Fatalf("lex errors: %v", errs)
			}
			var got []phptoken.Kind
			for _, tk := range toks[1 : len(toks)-1] {
				got = append(got, tk.Kind)
				if tk.Kind != phptoken.StringLit && tk.Kind != phptoken.IntLit && tk.Value != "" {
					t.Errorf("%v carries value %q", tk.Kind, tk.Value)
				}
				if tk.Pos.Line == 1 && tk.Pos.Col != tk.Pos.Offset+1 {
					t.Errorf("%v at %+v: column does not match offset", tk.Kind, tk.Pos)
				}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("kinds = %v, want %v", got, tc.want)
			}
		})
	}
}
