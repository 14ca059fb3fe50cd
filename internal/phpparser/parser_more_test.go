package phpparser

import (
	"testing"

	"repro/internal/phpast"
)

func TestParseAlternativeLoops(t *testing.T) {
	src := `<?php
while ($a): $x = 1; endwhile;
for ($i = 0; $i < 3; $i++): $y = $i; endfor;
foreach ($xs as $v): $z = $v; endforeach;
switch ($m):
	case 1:
		$w = 1;
		break;
	default:
		$w = 2;
endswitch;
`
	f := mustParse(t, src)
	if len(f.Stmts) != 4 {
		t.Fatalf("stmts = %d", len(f.Stmts))
	}
	if _, ok := f.Stmts[0].(*phpast.While); !ok {
		t.Errorf("0: %T", f.Stmts[0])
	}
	if _, ok := f.Stmts[1].(*phpast.For); !ok {
		t.Errorf("1: %T", f.Stmts[1])
	}
	if _, ok := f.Stmts[2].(*phpast.Foreach); !ok {
		t.Errorf("2: %T", f.Stmts[2])
	}
	sw, ok := f.Stmts[3].(*phpast.Switch)
	if !ok || len(sw.Cases) != 2 {
		t.Errorf("3: %T %+v", f.Stmts[3], sw)
	}
}

func TestParseNamespaceAndUse(t *testing.T) {
	src := `<?php
namespace Vendor\Plugin;
use Other\Thing as Alias;
$x = 1;
`
	f := mustParse(t, src)
	found := false
	phpast.Walk(f, func(n phpast.Node) bool {
		if v, ok := n.(*phpast.Var); ok && v.Name == "x" {
			found = true
		}
		return true
	})
	if !found {
		t.Error("code after namespace/use lost")
	}
}

func TestParseQualifiedCalls(t *testing.T) {
	e := exprOf(t, `<?php \Vendor\Util::helper($a);`)
	sc, ok := e.(*phpast.StaticCall)
	if !ok || sc.Class != "Vendor\\Util" || sc.Method != "helper" {
		t.Fatalf("got %+v", e)
	}
}

func TestParseNewVariableClass(t *testing.T) {
	e := exprOf(t, `<?php $o = new $cls(1);`)
	n := e.(*phpast.Assign).Value.(*phpast.New)
	if n.Class != "$cls" {
		t.Errorf("class = %q", n.Class)
	}
}

func TestParseAnonymousClass(t *testing.T) {
	e := exprOf(t, `<?php $o = new class { public function f() {} };`)
	n := e.(*phpast.Assign).Value.(*phpast.New)
	if n.Class != "class@anonymous" {
		t.Errorf("class = %q", n.Class)
	}
}

func TestParseInstanceof(t *testing.T) {
	e := exprOf(t, `<?php $ok = $x instanceof WP_Error;`)
	b := e.(*phpast.Assign).Value.(*phpast.Binary)
	if b.Op != "instanceof" {
		t.Fatalf("op = %s", b.Op)
	}
	if n, ok := b.R.(*phpast.Name); !ok || n.Value != "WP_Error" {
		t.Errorf("rhs = %+v", b.R)
	}
}

func TestParseCurlyStringOffset(t *testing.T) {
	e := exprOf(t, `<?php $c = $s{0};`)
	dim, ok := e.(*phpast.Assign).Value.(*phpast.ArrayDim)
	if !ok {
		t.Fatalf("got %T", e.(*phpast.Assign).Value)
	}
	if i, ok := dim.Index.(*phpast.IntLit); !ok || i.Value != 0 {
		t.Errorf("index = %+v", dim.Index)
	}
}

func TestParseAssignRef(t *testing.T) {
	e := exprOf(t, `<?php $a = &$b;`)
	a := e.(*phpast.Assign)
	if !a.ByRef {
		t.Error("ByRef not set")
	}
}

func TestParseByRefForeach(t *testing.T) {
	s := firstStmt(t, `<?php foreach ($xs as &$v) { $v = 1; }`)
	fe := s.(*phpast.Foreach)
	if !fe.ByRef {
		t.Error("ByRef not set")
	}
}

func TestParseSpread(t *testing.T) {
	// Variadic parameter.
	fd := firstStmt(t, `<?php function f(...$args) {}`).(*phpast.FuncDecl)
	if len(fd.Params) != 1 || !fd.Params[0].Variadic {
		t.Errorf("params = %+v", fd.Params)
	}
}

func TestParseInterfaceDecl(t *testing.T) {
	src := `<?php
interface Uploader {
	public function save($f);
}
`
	cd := firstStmt(t, src).(*phpast.ClassDecl)
	if !cd.IsInterface || len(cd.Methods) != 1 || cd.Methods[0].Body != nil {
		t.Errorf("decl = %+v", cd)
	}
}

func TestParseAbstractClass(t *testing.T) {
	src := `<?php
abstract class Base {
	abstract public function run($x);
	public function helper() { return 1; }
}
`
	cd := firstStmt(t, src).(*phpast.ClassDecl)
	if len(cd.Methods) != 2 {
		t.Fatalf("methods = %d", len(cd.Methods))
	}
	if cd.Methods[0].Body != nil {
		t.Error("abstract method should have nil body")
	}
}

func TestParseTypedProperty(t *testing.T) {
	src := `<?php
class C {
	public string $name = "x";
}
`
	cd := firstStmt(t, src).(*phpast.ClassDecl)
	if len(cd.Props) != 1 || cd.Props[0].Name != "name" {
		t.Errorf("props = %+v", cd.Props)
	}
}

func TestParseHeredocInCode(t *testing.T) {
	src := "<?php\n$tpl = <<<HTML\n<form action=\"upload.php\">\nHTML;\n$x = 1;\n"
	f := mustParse(t, src)
	if len(f.Stmts) != 2 {
		t.Fatalf("stmts = %d", len(f.Stmts))
	}
}

func TestParseConstStatement(t *testing.T) {
	src := `<?php const MAX_SIZE = 1024;`
	s := firstStmt(t, src)
	es, ok := s.(*phpast.ExprStmt)
	if !ok {
		t.Fatalf("got %T", s)
	}
	a := es.X.(*phpast.Assign)
	if c, ok := a.Target.(*phpast.ConstFetch); !ok || c.Name != "MAX_SIZE" {
		t.Errorf("target = %+v", a.Target)
	}
}

func TestParseCloseTagEndsStatement(t *testing.T) {
	// A statement can be terminated by ?> without a semicolon.
	src := `<?php $x = 1 ?>`
	f := mustParse(t, src)
	if len(f.Stmts) == 0 {
		t.Fatal("statement lost")
	}
}

func TestParseListShorthandNulls(t *testing.T) {
	e := exprOf(t, `<?php list(, $b) = $pair;`)
	le := e.(*phpast.Assign).Target.(*phpast.ListExpr)
	if len(le.Items) != 2 || le.Items[0] != nil || le.Items[1] == nil {
		t.Errorf("items = %+v", le.Items)
	}
}

func TestParseExprStmtRecoveryInsideBlock(t *testing.T) {
	src := `<?php
function f() {
	$a = @;
	$b = 2;
}
`
	f, errs := Parse("bad.php", src)
	if len(errs) == 0 {
		t.Error("expected errors")
	}
	var sawB bool
	phpast.Walk(f, func(n phpast.Node) bool {
		if v, ok := n.(*phpast.Var); ok && v.Name == "b" {
			sawB = true
		}
		return true
	})
	if !sawB {
		t.Error("recovery lost $b inside function")
	}
}

func TestParseMethodNamedList(t *testing.T) {
	src := `<?php
class C {
	public function list() { return 1; }
}
$r = $c->list();
`
	f := mustParse(t, src)
	if len(f.Stmts) < 2 {
		t.Fatal("stmts missing")
	}
}

func TestParseBreakContinueLevels(t *testing.T) {
	src := `<?php
while ($a) {
	while ($b) {
		break 2;
		continue 2;
	}
}
`
	f := mustParse(t, src)
	var brk *phpast.Break
	phpast.Walk(f, func(n phpast.Node) bool {
		if b, ok := n.(*phpast.Break); ok {
			brk = b
		}
		return true
	})
	if brk == nil || brk.Level != 2 {
		t.Errorf("break = %+v", brk)
	}
}

func TestParseExprEntry(t *testing.T) {
	e, errs := ParseExpr("inline", `$a['k'] . "/x"`)
	if len(errs) > 0 {
		t.Fatalf("errs: %v", errs)
	}
	b, ok := e.(*phpast.Binary)
	if !ok || b.Op != "." {
		t.Errorf("got %+v", e)
	}
}

// TestParseFoldingASCIIOnly pins PHP's ASCII-only case folding for cast
// names and context keywords: upper-case ASCII spellings still match,
// but a non-ASCII letter that Unicode folds to an ASCII one does not.
func TestParseFoldingASCIIOnly(t *testing.T) {
	stmt := firstStmt(t, `<?php $x = (INT)$y;`).(*phpast.ExprStmt)
	if c, ok := stmt.X.(*phpast.Assign).Value.(*phpast.Cast); !ok || c.Type != "int" {
		t.Errorf("(INT)$y = %s, want an int cast", phpast.Dump(stmt))
	}
	// U+0130 LATIN CAPITAL LETTER I WITH DOT ABOVE lower-cases to 'i'.
	f, _ := Parse("fold.php", "<?php $x = (İnt)$y;")
	phpast.Walk(f, func(n phpast.Node) bool {
		if _, ok := n.(*phpast.Cast); ok {
			t.Errorf("(İnt)$y parsed as a cast: %s", phpast.Dump(f))
		}
		return true
	})

	f = mustParse(t, "<?php if ($a): echo 1; ENDIF;")
	if len(f.Stmts) != 1 {
		t.Errorf("ENDIF did not close the if: %s", phpast.Dump(f))
	}
	// U+017F LATIN SMALL LETTER LONG S folds to 's' under Unicode rules.
	// It stays an identifier, so the switch runs on to the end of input.
	f, _ = Parse("fold.php", "<?php switch ($a): case 1: break; endſwitch;")
	if sw, ok := f.Stmts[0].(*phpast.Switch); !ok || len(sw.Cases[0].Stmts) != 2 {
		t.Errorf("endſwitch closed the switch: %s", phpast.Dump(f))
	}
}
