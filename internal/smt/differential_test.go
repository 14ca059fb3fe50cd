package smt

import (
	"math/rand"
	"testing"
)

// This file cross-checks the bounded-model solver against brute-force
// enumeration on randomly generated formulas whose constants are drawn
// from a small pool. Because every constant in a generated formula is in
// the brute-force domain, and the solver's candidate seeding includes all
// constants of the formula (plus ""), any brute-force-satisfiable formula
// must be found satisfiable by the solver, and every solver verdict must
// be consistent with the enumeration.

var (
	diffStrPool = []string{"", "a", "b", ".php", "ab", "zip"}
	diffIntPool = []int64{-1, 0, 1, 2, 5}
)

type formulaGen struct {
	r *rand.Rand
}

func (g *formulaGen) strExpr(depth int) *Term {
	switch g.r.Intn(4) {
	case 0:
		return Var("s1", SortString)
	case 1:
		return Var("s2", SortString)
	case 2:
		return Str(diffStrPool[g.r.Intn(len(diffStrPool))])
	default:
		if depth <= 0 {
			return Str(diffStrPool[g.r.Intn(len(diffStrPool))])
		}
		return Concat(g.strExpr(depth-1), g.strExpr(depth-1))
	}
}

func (g *formulaGen) intExpr(depth int) *Term {
	switch g.r.Intn(4) {
	case 0:
		return Var("n", SortInt)
	case 1:
		return Int(diffIntPool[g.r.Intn(len(diffIntPool))])
	case 2:
		return Len(g.strExpr(depth - 1))
	default:
		if depth <= 0 {
			return Int(diffIntPool[g.r.Intn(len(diffIntPool))])
		}
		return Add(g.intExpr(depth-1), g.intExpr(depth-1))
	}
}

func (g *formulaGen) atom(depth int) *Term {
	switch g.r.Intn(6) {
	case 0:
		return Eq(g.strExpr(depth), g.strExpr(depth))
	case 1:
		return SuffixOf(g.strExpr(depth), g.strExpr(depth))
	case 2:
		return PrefixOf(g.strExpr(depth), g.strExpr(depth))
	case 3:
		return Contains(g.strExpr(depth), g.strExpr(depth))
	case 4:
		return Gt(g.intExpr(depth), g.intExpr(depth))
	default:
		return Le(g.intExpr(depth), g.intExpr(depth))
	}
}

func (g *formulaGen) boolExpr(depth int) *Term {
	if depth <= 0 {
		return g.atom(1)
	}
	switch g.r.Intn(4) {
	case 0:
		return And(g.boolExpr(depth-1), g.boolExpr(depth-1))
	case 1:
		return Or(g.boolExpr(depth-1), g.boolExpr(depth-1))
	case 2:
		return Not(g.boolExpr(depth - 1))
	default:
		return g.atom(2)
	}
}

// bruteForce enumerates the pool domain for (s1, s2, n) and reports
// whether any assignment satisfies f, together with a witness.
func bruteForce(t *testing.T, f *Term) (bool, Model) {
	t.Helper()
	for _, s1 := range diffStrPool {
		for _, s2 := range diffStrPool {
			for _, n := range diffIntPool {
				m := Model{
					"s1": StrValue(s1),
					"s2": StrValue(s2),
					"n":  IntValue(n),
				}
				v, err := Eval(f, m)
				if err != nil {
					t.Fatalf("brute-force eval error on %s: %v", f, err)
				}
				if v.B {
					return true, m
				}
			}
		}
	}
	return false, nil
}

func TestSolverDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(20260707))
	g := &formulaGen{r: r}
	solver := NewSolver(Options{})

	const rounds = 1000
	sat, unsat, refuted := 0, 0, 0
	for i := 0; i < rounds; i++ {
		f := g.boolExpr(3)
		// Bind all three variables so every model is total.
		f = And(f,
			Or(Eq(Var("s1", SortString), Var("s1", SortString))),
			Or(Eq(Var("s2", SortString), Var("s2", SortString))),
			Or(Eq(Var("n", SortInt), Var("n", SortInt))),
		)
		bfSat, bfModel := bruteForce(t, f)
		// Refuter soundness: a cube the refuter rejects must have no model
		// in the pool either.
		for _, conj := range refutedCubes(solver, f) {
			refuted++
			if ok, m := bruteForce(t, conj); ok {
				t.Fatalf("round %d: refuter rejected cube %s, but %v satisfies it", i, conj, m)
			}
		}
		status, model, _, err := solver.Check(f)
		if err != nil {
			// Budget exhaustion is allowed but must not contradict.
			if status == Unknown {
				continue
			}
			t.Fatalf("round %d: %v on %s", i, err, f)
		}
		switch status {
		case Sat:
			sat++
			v, evalErr := Eval(f, model)
			if evalErr != nil || !v.B {
				t.Fatalf("round %d: unsound model %v for %s", i, model, f)
			}
		case Unsat:
			unsat++
			if bfSat {
				t.Fatalf("round %d: solver unsat but brute force found %v for %s", i, bfModel, f)
			}
		case Unknown:
			// Acceptable; no claim to contradict.
		}
		if bfSat && status == Unsat {
			t.Fatalf("round %d: contradiction on %s", i, f)
		}
		// Completeness over the seeded space: brute-force SAT within the
		// constant pool implies the solver (whose candidates include all
		// formula constants and "") must find some model.
		if bfSat && status != Sat {
			t.Errorf("round %d: brute force sat (%v) but solver %v on %s", i, bfModel, status, f)
		}
	}
	t.Logf("sat=%d unsat=%d refuted cubes=%d of %d rounds", sat, unsat, refuted, rounds)
	if sat == 0 || unsat == 0 || refuted == 0 {
		t.Errorf("degenerate distribution: sat=%d unsat=%d refuted cubes=%d of %d", sat, unsat, refuted, rounds)
	}
}

// refutedCubes returns the simplified cubes of f, as CheckCtx derives
// them, that the refuter rejects.
func refutedCubes(s *Solver, f *Term) []*Term {
	g := Simplify(f)
	if g.Op == OpBoolConst {
		return nil
	}
	cubes, ok := dnf(nnf(g, false), s.opts.MaxCubes)
	if !ok {
		return nil
	}
	var out []*Term
	for _, cube := range cubes {
		conj := Simplify(And(cube...))
		var st Stats
		if conj.Op != OpBoolConst && s.refute(conj, &st) {
			out = append(out, conj)
		}
	}
	return out
}

// TestSolverDifferentialUnsatAgree: formulas that are unsatisfiable over
// ALL strings (not just the pool) must be reported unsat by the solver.
func TestSolverDifferentialUnsatTautologies(t *testing.T) {
	s1 := Var("s1", SortString)
	cases := []*Term{
		And(Eq(s1, Str("a")), Eq(s1, Str("b"))),
		And(SuffixOf(Str("ab"), s1), Eq(Len(s1), Int(1))),
		And(PrefixOf(Str("a"), s1), Eq(s1, Str("b"))),
		Not(Or(Eq(s1, s1))),
		And(Gt(Len(s1), Int(2)), Lt(Len(s1), Int(2))),
	}
	solver := NewSolver(Options{})
	for _, f := range cases {
		status, _, _, err := solver.Check(f)
		if err != nil || status != Unsat {
			t.Errorf("%s: status=%v err=%v, want unsat", f, status, err)
		}
	}
}
