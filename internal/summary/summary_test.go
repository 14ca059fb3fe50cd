package summary

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/phpast"
	"repro/internal/phpparser"
	"repro/internal/sexpr"
	"repro/internal/smt"
)

func parse(t *testing.T, src string) *phpast.File {
	t.Helper()
	f, errs := phpparser.Parse("test.php", "<?php\n"+src)
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	return f
}

func build(t *testing.T, src string) *Set {
	t.Helper()
	return Build([]*phpast.File{parse(t, src)}, smt.NewFactory())
}

func TestTrivialPassthrough(t *testing.T) {
	set := build(t, `
function ident($x) { return $x; }
function konst() { return "up/"; }
function knull() { return; }
`)
	id := set.Lookup("ident")
	if id == nil || !id.Trivial() || id.ReturnFormal != 0 {
		t.Fatalf("ident not a trivial passthrough: %+v", id)
	}
	if id.ReturnTaint != 1 {
		t.Errorf("ident ReturnTaint = %#x, want 1", id.ReturnTaint)
	}
	k := set.Lookup("konst")
	if k == nil || !k.Trivial() || k.ReturnConst != sexpr.Expr(sexpr.StrVal("up/")) {
		t.Fatalf("konst not a trivial const return: %+v", k)
	}
	if kn := set.Lookup("knull"); kn.Trivial() {
		t.Error("bare return classified as trivial")
	}
}

func TestAssignedFormalNotTrivial(t *testing.T) {
	set := build(t, `function f($x) { $x = 1; return $x; }`)
	if s := set.Lookup("f"); s.ReturnFormal >= 0 {
		t.Errorf("reassigned formal still classified as passthrough: %+v", s)
	}
}

func TestReturnTaintThroughLocals(t *testing.T) {
	set := build(t, `
function f($a, $b, $c) {
	$x = $a . "/";
	$y = $x;
	$z = $c;
	return $y . $b;
}
`)
	s := set.Lookup("f")
	if s.ReturnTaint != 0b011 {
		t.Errorf("ReturnTaint = %#b, want 0b011", s.ReturnTaint)
	}
	if s.Escapes {
		t.Errorf("unexpected escape: %s", s.EscapeReason)
	}
}

func TestReturnTermVocabulary(t *testing.T) {
	fac := smt.NewFactory()
	set := Build([]*phpast.File{parse(t, `function f($dir, $name) { return $dir . "/" . $name; }`)}, fac)
	s := set.Lookup("f")
	want := fac.Concat(fac.Concat(fac.Formal(0, smt.SortString), fac.Str("/")), fac.Formal(1, smt.SortString))
	if s.ReturnTerm != want {
		t.Fatalf("ReturnTerm = %v, want %v", s.ReturnTerm, want)
	}
	// Instantiation at a call site.
	got := fac.Substitute(s.ReturnTerm, []*smt.Term{fac.Str("up"), fac.Str("a.php")})
	if smt.HasFormal(got) {
		t.Error("instantiated term still has formals")
	}
}

func TestComposeReturnTermThroughCall(t *testing.T) {
	fac := smt.NewFactory()
	set := Build([]*phpast.File{parse(t, `
function suffix($s) { return $s . ".php"; }
function f($base) { return suffix($base . "-v1"); }
`)}, fac)
	s := set.Lookup("f")
	want := fac.Concat(fac.Concat(fac.Formal(0, smt.SortString), fac.Str("-v1")), fac.Str(".php"))
	if s.ReturnTerm != want {
		t.Fatalf("composed ReturnTerm = %v, want %v", s.ReturnTerm, want)
	}
	if s.ReturnTaint != 1 {
		t.Errorf("composed ReturnTaint = %#x, want 1", s.ReturnTaint)
	}
}

func TestTaintThroughCalleeDropsUnusedArg(t *testing.T) {
	set := build(t, `
function first($a, $b) { return $a; }
function f($x, $y) { return first($x, $y); }
`)
	if s := set.Lookup("f"); s.ReturnTaint != 0b01 {
		t.Errorf("ReturnTaint = %#b, want 0b01 (callee ignores second arg)", s.ReturnTaint)
	}
}

func TestBuiltinCallConservative(t *testing.T) {
	set := build(t, `function f($a, $b) { return substr($a, 0, 3) . $b; }`)
	if s := set.Lookup("f"); s.ReturnTaint != 0b11 {
		t.Errorf("ReturnTaint = %#b, want 0b11 (builtin unions args)", s.ReturnTaint)
	}
}

func TestSinkEffects(t *testing.T) {
	set := build(t, `
function save($tmp, $dst) { move_uploaded_file($tmp, $dst . "/f"); }
function f($t, $d) { save($t, $d); }
`)
	s := set.Lookup("save")
	if len(s.Sinks) != 1 {
		t.Fatalf("save sinks = %+v", s.Sinks)
	}
	if s.Sinks[0].Sink != "move_uploaded_file" || s.Sinks[0].SrcFormals != 0b01 || s.Sinks[0].DstFormals != 0b10 {
		t.Errorf("save sink effect = %+v", s.Sinks[0])
	}
	// The caller inherits the effect with masks remapped through args.
	f := set.Lookup("f")
	if len(f.Sinks) != 1 || f.Sinks[0].SrcFormals != 0b01 || f.Sinks[0].DstFormals != 0b10 {
		t.Errorf("propagated sink effect = %+v", f.Sinks)
	}
}

func TestFilePutContentsArgRoles(t *testing.T) {
	set := build(t, `function f($path, $data) { file_put_contents($path, $data); }`)
	s := set.Lookup("f")
	if len(s.Sinks) != 1 || s.Sinks[0].SrcFormals != 0b10 || s.Sinks[0].DstFormals != 0b01 {
		t.Errorf("file_put_contents roles = %+v", s.Sinks)
	}
}

func TestRecursionFixpoint(t *testing.T) {
	set := build(t, `
function walk($dir, $depth) {
	if ($depth) {
		return walk($dir . "/sub", $depth);
	}
	return $dir;
}
`)
	s := set.Lookup("walk")
	if !s.Recursive {
		t.Fatal("self-recursive function not marked Recursive")
	}
	if s.ReturnTerm != nil {
		t.Error("recursive function kept a return term")
	}
	if s.ReturnTaint&0b01 == 0 {
		t.Errorf("ReturnTaint = %#b, want bit 0 (dir flows to return)", s.ReturnTaint)
	}
	if s.Escapes {
		t.Errorf("recursion escaped: %s", s.EscapeReason)
	}
}

func TestMutualRecursionFixpoint(t *testing.T) {
	set := build(t, `
function even($n, $x) { if ($n) { return odd($n, $x); } return $x; }
function odd($n, $x) { if ($n) { return even($n, $x); } return "done"; }
`)
	e, o := set.Lookup("even"), set.Lookup("odd")
	if !e.Recursive || !o.Recursive {
		t.Fatal("mutually recursive pair not marked Recursive")
	}
	// $x flows to even's return directly and through odd; the fixpoint
	// must settle with bit 1 set on both.
	if e.ReturnTaint&0b10 == 0 || o.ReturnTaint&0b10 == 0 {
		t.Errorf("ReturnTaint even=%#b odd=%#b, want bit 1 on both", e.ReturnTaint, o.ReturnTaint)
	}
}

func TestWideningBound(t *testing.T) {
	// A recursive chain that keeps rotating taint between formals
	// converges slowly; the widening bound must force termination and
	// over-approximate to all formals rather than loop.
	var sb strings.Builder
	sb.WriteString("function rot0($a, $b) { if ($a) { return rot1($b, $a); } return $a; }\n")
	sb.WriteString("function rot1($a, $b) { if ($a) { return rot0($b, $a); } return $b; }\n")
	set := build(t, sb.String())
	s := set.Lookup("rot0")
	if !s.Recursive {
		t.Fatal("rotating pair not recursive")
	}
	// Whether or not the bound was hit, the result must be a sound
	// over-approximation that includes both formals.
	if s.ReturnTaint != 0b11 {
		t.Errorf("ReturnTaint = %#b, want 0b11", s.ReturnTaint)
	}
}

func TestEscapeTaxonomy(t *testing.T) {
	cases := []struct {
		src, reason string
	}{
		{`function f(&$x) { return $x; }`, "by-ref param"},
		{`function f(...$x) { return $x; }`, "variadic param"},
		{`function f() { global $g; return $g; }`, "global statement"},
		{`function f($x) { $x(); }`, "dynamic call"},
		{`function f($x) { call_user_func($x); }`, "call_user_func"},
		{`function f($x) { $y = function() { return 1; }; }`, "closure"},
		{`function f($x) { include $x; }`, "include"},
		{`function f($x) { static $n = 0; return $n; }`, "static variables"},
		{`function f($x) { $x->m(); }`, "method call"},
		{`function f($x) { return new Foo(); }`, "object construction"},
		{`function f($x) { $y = &$x; }`, "by-ref assignment"},
		{`function f($a) { foreach ($a as &$v) { $v = 1; } }`, "by-ref foreach"},
		{`function f($x) { exit($x); }`, "exit"},
	}
	for _, c := range cases {
		set := build(t, c.src)
		s := set.Lookup("f")
		if s == nil {
			t.Fatalf("%s: no summary", c.src)
		}
		if !s.Escapes || s.EscapeReason != c.reason {
			t.Errorf("%s: escapes=%v reason=%q, want %q", c.src, s.Escapes, s.EscapeReason, c.reason)
		}
	}
}

func TestMethodsEscape(t *testing.T) {
	set := build(t, `class C { function m($x) { return $x; } }`)
	for _, name := range []string{"c::m", "m"} {
		s := set.Lookup(name)
		if s == nil || !s.Escapes {
			t.Errorf("method %q not registered as escaping: %+v", name, s)
		}
	}
}

func TestDefaultArgsDoNotEscape(t *testing.T) {
	set := build(t, `function f($x, $mode = "w") { return $x . $mode; }`)
	s := set.Lookup("f")
	if s.Escapes {
		t.Errorf("default args escaped: %s", s.EscapeReason)
	}
	if s.ReturnTaint != 0b11 {
		t.Errorf("ReturnTaint = %#b, want 0b11", s.ReturnTaint)
	}
}

func TestDeadAndMergeVars(t *testing.T) {
	set := build(t, `
function f($p) {
	$dead = 1;
	$dead = 2;
	$used = 3;
	if ($cond) { $dead = 4; } else { $flag = 0; }
	switch ($mode) { case 1: break; }
	echo $used;
	return $p;
}
`)
	s := set.Lookup("f")
	if got := strings.Join(s.DeadVars, ","); got != "dead,flag" {
		t.Errorf("DeadVars = %q, want \"dead,flag\"", got)
	}
	if got := strings.Join(s.MergeVars, ","); got != "cond,mode" {
		t.Errorf("MergeVars = %q, want \"cond,mode\"", got)
	}
}

func TestMergeVarExclusions(t *testing.T) {
	// A condition variable that is also read elsewhere, is a param, or
	// is a superglobal must not be mergeable.
	set := build(t, `
function f($p) {
	if ($p) { $a = 1; }
	if ($_FILES) { $b = 1; }
	if ($twice) { $c = 1; }
	echo $twice;
	global $g;
	if ($g) { $d = 1; }
}
`)
	s := set.Lookup("f")
	if len(s.MergeVars) != 0 {
		t.Errorf("MergeVars = %v, want none", s.MergeVars)
	}
}

func TestTouchesFilesAndForks(t *testing.T) {
	set := build(t, `
function reads_files() { return $_FILES['u']['name']; }
function forks($x) { if ($x) { return 1; } return 2; }
function calls_both($x) { $n = reads_files(); return forks($n); }
`)
	if s := set.Lookup("reads_files"); !s.TouchesFiles {
		t.Error("reads_files does not report TouchesFiles")
	}
	if s := set.Lookup("forks"); !s.Forks {
		t.Error("forks does not report Forks")
	}
	cb := set.Lookup("calls_both")
	if !cb.TouchesFiles || !cb.Forks {
		t.Errorf("calls_both TouchesFiles=%v Forks=%v, want both", cb.TouchesFiles, cb.Forks)
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	file := parse(t, `
function suffix($s) { return $s . ".php"; }
function save($tmp, $dst) { move_uploaded_file($tmp, $dst); }
`)
	fl := LocalFile(file)
	blob, err := EncodeFile(fl)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeFile(blob)
	if err != nil {
		t.Fatal(err)
	}
	fac := smt.NewFactory()
	a := Compose([]*FileLocal{fl}, fac)
	b := Compose([]*FileLocal{back}, fac)
	for name, sa := range a.Funcs {
		sb := b.Funcs[name]
		if sb == nil {
			t.Fatalf("%s lost in round trip", name)
		}
		if sa.ReturnTaint != sb.ReturnTaint || sa.ReturnTerm != sb.ReturnTerm ||
			sa.Escapes != sb.Escapes || len(sa.Sinks) != len(sb.Sinks) ||
			sa.ReturnFormal != sb.ReturnFormal {
			t.Errorf("%s: round-trip mismatch:\n  fresh:   %s\n  decoded: %s", name, sa, sb)
		}
	}
}

func TestArtifactVersionSkew(t *testing.T) {
	fl := LocalFile(parse(t, `function f($x) { return $x; }`))
	blob, err := EncodeFile(fl)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(blob, &raw); err != nil {
		t.Fatal(err)
	}
	raw["version"] = json.RawMessage("999")
	skewed, _ := json.Marshal(raw)
	if _, err := DecodeFile(skewed); err == nil {
		t.Fatal("version-skewed artifact decoded without error")
	}
	if _, err := DecodeFile([]byte("{not json")); err == nil {
		t.Fatal("corrupt artifact decoded without error")
	}
}

// TestMethodScannedOnceRegisteredTwice pins the two registrations of a
// class method: the bare-name entry is a copy of the qualified one that
// differs only in Name, and the artifact encodes exactly as it did when
// each name was scanned separately.
func TestMethodScannedOnceRegisteredTwice(t *testing.T) {
	fl := LocalFile(parse(t, `
class Up {
	function save($f) { $d = "up/"; if ($ok) { move_uploaded_file($f, $d . $f); } return $d; }
	function Name() { return "x"; }
}
function top($a) { return helper($a); }
`))
	var names []string
	for _, fn := range fl.Funcs {
		names = append(names, fn.Name)
	}
	if got := strings.Join(names, ","); got != "up::save,save,up::name,name,top" {
		t.Fatalf("registered names = %s", got)
	}
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		qual, bare := *fl.Funcs[pair[0]], *fl.Funcs[pair[1]]
		bare.Name = qual.Name
		if !reflect.DeepEqual(qual, bare) {
			t.Errorf("%s and %s differ beyond Name:\n%+v\n%+v", fl.Funcs[pair[0]].Name, fl.Funcs[pair[1]].Name, qual, bare)
		}
	}
	raw, err := EncodeFile(fl)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"version":1,"file":"test.php","funcs":[` +
		`{"name":"up::save","file":"test.php","line":4,"params":1,"escapes":true,"escapeReason":"class method","forks":true,"sinks":[{"k":"move_uploaded_file","l":4,"src":{"f":1},"dst":{"f":1}}],"ret":{},"retLine":4,"retFormal":-1,"mergeVars":["ok"]},` +
		`{"name":"save","file":"test.php","line":4,"params":1,"escapes":true,"escapeReason":"class method","forks":true,"sinks":[{"k":"move_uploaded_file","l":4,"src":{"f":1},"dst":{"f":1}}],"ret":{},"retLine":4,"retFormal":-1,"mergeVars":["ok"]},` +
		`{"name":"up::name","file":"test.php","line":5,"params":0,"escapes":true,"escapeReason":"class method","ret":{},"retTerm":{"op":"str","s":"x"},"retLine":5,"retFormal":-1,"retConstKind":"str","retConstStr":"x"},` +
		`{"name":"name","file":"test.php","line":5,"params":0,"escapes":true,"escapeReason":"class method","ret":{},"retTerm":{"op":"str","s":"x"},"retLine":5,"retFormal":-1,"retConstKind":"str","retConstStr":"x"},` +
		`{"name":"top","file":"test.php","line":7,"params":1,"sites":[{"c":"helper","l":7,"a":[{"f":1}]}],"ret":{"s":[0]},"retCall":{"c":"helper","a":[{"op":"formal"}]},"retLine":7,"retFormal":-1}]}`
	if string(raw) != want {
		t.Errorf("artifact encoding changed:\n got: %s\nwant: %s", raw, want)
	}
}
