package smt

import (
	"math/rand"
	"strings"
	"testing"
)

// checkBoth decides f through a direct and an interned solver, requires
// identical verdicts, witnesses and Stats, and returns the direct result.
func checkBoth(t *testing.T, f *Term) (Status, Model, Stats) {
	t.Helper()
	dStatus, dModel, dStats, dErr := NewSolver(Options{}).Check(f)
	fac := NewFactory()
	iStatus, iModel, iStats, iErr := NewSolverWithFactory(Options{}, fac).Check(fac.Intern(f))
	if dStatus != iStatus || (dErr == nil) != (iErr == nil) {
		t.Fatalf("verdict mismatch on %s: direct (%v,%v) interned (%v,%v)", f, dStatus, dErr, iStatus, iErr)
	}
	if dStats != iStats {
		t.Fatalf("stats mismatch on %s: direct %+v interned %+v", f, dStats, iStats)
	}
	if len(dModel) != len(iModel) {
		t.Fatalf("model mismatch on %s: %v vs %v", f, dModel, iModel)
	}
	for k, v := range dModel {
		if iModel[k] != v {
			t.Fatalf("model mismatch on %s at %s: %v vs %v", f, k, v, iModel[k])
		}
	}
	return dStatus, dModel, dStats
}

func TestRefuteProvesUnsat(t *testing.T) {
	s1, s2, s3 := Var("s1", SortString), Var("s2", SortString), Var("s3", SortString)
	p, ext, name := Var("p", SortString), Var("ext", SortString), Var("name", SortString)
	cases := map[string]*Term{
		// The screening whitelist shape: a unit equality pins the tail.
		"unit equality": And(
			SuffixOf(Str(".php"), Concat(p, Str("/import."), ext)),
			Eq(ext, Str("csv"))),
		// Unit equalities chain: s2's binding only appears once s1's
		// substitution has folded the first literal.
		"chained units": And(
			Eq(s1, Str("a")),
			Eq(Concat(s1, s2), Concat(Str("a"), Str("b"))),
			SuffixOf(Str("c"), s2)),
		// The pinned-name shape: one split of the constant, and the
		// replaced name never ends in ".php".
		"pinned name": And(
			SuffixOf(Str(".php"), Concat(p, Str("/"), Replace(Concat(name, Str("."), ext), Str("zip"), Str("dat")))),
			Eq(Concat(name, Str("."), ext), Str("portfolio.zip"))),
		// Adjacent variables: every split of "ab" leaves s2 without the
		// ".php" suffix.
		"adjacent variables": And(
			Eq(Concat(s1, s2), Str("ab")),
			SuffixOf(Str(".php"), s2)),
		// A repeated variable must take one value at every occurrence:
		// no string tripled spells "ab".
		"repeated variable": Eq(Concat(s1, s1, s1), Str("ab")),
		"repeated variable, constrained": And(
			Eq(Concat(s1, s1), Str("abab")),
			Not(Eq(s1, Str("ab")))),
		// Nested: the first split binds s1 and s2, exposing a second
		// concatenation equality over s3.
		"nested splits": And(
			Eq(Concat(s1, Str("-"), s2), Str("x-y")),
			Eq(Concat(s2, s3), Str("yz")),
			PrefixOf(Str("q"), s3)),
	}
	for name, f := range cases {
		status, _, st := checkBoth(t, f)
		if status != Unsat || st.Searched != 0 || st.Assignments != 0 {
			t.Errorf("%s: status=%v %+v, want a proved unsat with no search", name, status, st)
		}
		if st.Refuted == 0 && st.Cubes > 0 {
			t.Errorf("%s: no cube refuted: %+v", name, st)
		}
	}
}

// TestRefuteLeavesSatAlone: a cube with a model is never refuted, so the
// search finds the same witness it always did.
func TestRefuteLeavesSatAlone(t *testing.T) {
	s1, s2 := Var("s1", SortString), Var("s2", SortString)
	cases := []*Term{
		And(Eq(Concat(s1, s2), Str("ab")), Eq(s2, Str("b"))),
		Eq(Concat(s1, s1), Str("abab")),
		And(Eq(Concat(s1, Str("."), s2), Str("shell.php")), SuffixOf(Str(".php"), Concat(Str("up/"), s1, Str("."), s2))),
		And(Eq(s1, Str("x.php")), SuffixOf(Str(".php"), Concat(Str("up/"), s1))),
	}
	for _, f := range cases {
		status, m, st := checkBoth(t, f)
		if status != Sat || st.Refuted != 0 {
			t.Errorf("%s: status=%v %+v, want sat with nothing refuted", f, status, st)
			continue
		}
		if v, err := Eval(f, m); err != nil || !v.B {
			t.Errorf("%s: witness %v does not satisfy the formula", f, m)
		}
	}
}

// TestRefuteSplitCapFallsBack: a concatenation equality with more splits
// than maxSplitSteps allows is not refuted; the cube goes to the bounded
// search, and its Unsat is reported as exhausted rather than proved.
func TestRefuteSplitCapFallsBack(t *testing.T) {
	a, b, c, d := Var("a", SortString), Var("b", SortString), Var("c", SortString), Var("d", SortString)
	long := strings.Repeat("x", 40)
	f := And(Eq(Concat(a, b, c, d), Str(long)), Eq(Len(a), Int(50)))
	var st Stats
	conj := Simplify(f)
	if NewSolver(Options{}).refute(conj, &st) {
		t.Fatalf("refuted %s within a %d-step cap", conj, maxSplitSteps)
	}
	status, _, st := checkBoth(t, f)
	if status != Unsat || st.Refuted != 0 || st.Searched != 1 || st.Assignments == 0 {
		t.Fatalf("status=%v %+v, want an exhausted unsat from one searched cube", status, st)
	}
	// The same shape under the cap is refuted outright.
	short := And(Eq(Concat(a, b), Str("xx")), Eq(Len(a), Int(50)))
	status, _, st = checkBoth(t, short)
	if status != Unsat || st.Refuted != 1 || st.Searched != 0 {
		t.Fatalf("short: status=%v %+v, want a proved unsat", status, st)
	}
}

// TestRefuteDifferential biases the randomized brute-force suite toward
// the refuter's shapes: every formula conjoins a string equality against
// a pool constant (a unit or concatenation equality) with a random
// formula. Every refuted cube must have no model in the pool, verdicts
// must agree with brute force, and interned and direct solving must
// report identical Stats.
func TestRefuteDifferential(t *testing.T) {
	g := &formulaGen{r: rand.New(rand.NewSource(20261017))}
	solver := NewSolver(Options{})
	const rounds = 1000
	refuted, proved := 0, 0
	for i := 0; i < rounds; i++ {
		f := And(
			Eq(g.strExpr(2), Str(diffStrPool[g.r.Intn(len(diffStrPool))])),
			g.boolExpr(2),
			Eq(Var("s1", SortString), Var("s1", SortString)),
			Eq(Var("s2", SortString), Var("s2", SortString)),
			Eq(Var("n", SortInt), Var("n", SortInt)),
		)
		for _, conj := range refutedCubes(solver, f) {
			refuted++
			if ok, m := bruteForce(t, conj); ok {
				t.Fatalf("round %d: refuter rejected cube %s, but %v satisfies it", i, conj, m)
			}
		}
		bfSat, bfModel := bruteForce(t, f)
		status, _, st := checkBoth(t, f)
		if status == Unsat && bfSat {
			t.Fatalf("round %d: unsat but brute force found %v for %s", i, bfModel, f)
		}
		if status == Unsat && st.Searched == 0 {
			proved++
		}
	}
	t.Logf("refuted cubes=%d proved unsat=%d of %d rounds", refuted, proved, rounds)
	if refuted == 0 {
		t.Error("no cube was refuted: the generator no longer exercises the refuter")
	}
}
