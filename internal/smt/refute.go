package smt

import "strings"

// Refutation: the proof layer the solver runs on every DNF cube before
// its bounded model search. It answers one question — "is this cube
// unsatisfiable over all strings and integers?" — and answers it only
// with "yes, proved" or "don't know". It never produces models, so a cube
// it cannot refute is searched exactly as before, on the unmodified
// cube, and Sat witnesses are unchanged by construction.
//
// Two rules, both complete case splits rather than samples:
//
//   - Unit equalities. A top-level literal (= x c), x a variable and c a
//     constant, fixes x in every model of the cube. Substituting c for x
//     everywhere and re-simplifying is an equivalence; it repeats until
//     no such literal is left. The detector's whitelist guards have
//     exactly this shape: (str.suffixof ".php" (str.++ p "/import." ext))
//     ∧ (= ext "csv") folds to false once ext is replaced.
//   - Concatenation equalities. In (= (str.++ t1 … tk) c), every ti a
//     variable or a string constant, each variable's value is a substring
//     of c, so the splits of c over the parts are finitely many. The cube
//     is refuted only if every split — a binding of all the parts'
//     variables — folds the cube to false, recursively applying both
//     rules. A repeated variable must take the same value at each
//     occurrence. The enumeration is capped by maxSplitSteps; past the
//     cap the cube is simply not refuted and falls back to search.

// maxSplitSteps bounds the variable values the concatenation rule may
// try while refuting one cube, across every nested split.
const maxSplitSteps = 512

// refute reports whether the simplified cube conj is unsatisfiable. The
// simplifier passes it spends are counted into st.Rewrites, like every
// per-cube simplification.
func (s *Solver) refute(conj *Term, st *Stats) bool {
	steps := maxSplitSteps
	return s.refuteConj(conj, &steps, st)
}

func (s *Solver) refuteConj(g *Term, steps *int, st *Stats) bool {
	for {
		binds := unitBindings(g)
		if binds == nil {
			break
		}
		g = s.f.simplifyCounted(s.f.bindVars(g, binds, map[*Term]*Term{}), st)
		if g.Op == OpBoolConst {
			return !g.B
		}
	}
	for _, l := range conjuncts(g) {
		parts, c, ok := s.f.concatEquality(l)
		if !ok {
			continue
		}
		// The first concatenation equality decides: either all its
		// splits refute the cube, or the cube is not refuted. Any other
		// concatenation equality is reached again inside the recursion,
		// with the first one's variables bound.
		return s.f.forEachSplit(parts, c, steps, func(binds map[string]*Term) bool {
			h := s.f.simplifyCounted(s.f.bindVars(g, binds, map[*Term]*Term{}), st)
			if h.Op == OpBoolConst {
				return !h.B
			}
			return s.refuteConj(h, steps, st)
		})
	}
	return false
}

// conjuncts returns the top-level conjuncts of a boolean term.
func conjuncts(g *Term) []*Term {
	if g.Op == OpAnd {
		return g.Args
	}
	return []*Term{g}
}

// unitBindings collects the (= x c) conjuncts of g, first binding per
// variable. It returns nil when there are none.
func unitBindings(g *Term) map[string]*Term {
	var binds map[string]*Term
	for _, l := range conjuncts(g) {
		if l.Op != OpEq {
			continue
		}
		v, c := l.Args[0], l.Args[1]
		if v.IsConst() {
			v, c = c, v
		}
		if v.Op != OpVar || !c.IsConst() {
			continue
		}
		if binds == nil {
			binds = map[string]*Term{}
		}
		if _, ok := binds[v.S]; !ok {
			binds[v.S] = c
		}
	}
	return binds
}

// bindVars replaces every variable named in binds by its constant,
// rebuilding only the spines that change. memo shares the rewrite of
// subterms that occur more than once.
func (f *Factory) bindVars(t *Term, binds map[string]*Term, memo map[*Term]*Term) *Term {
	if t.Op == OpVar {
		if c, ok := binds[t.S]; ok {
			return c
		}
		return t
	}
	if len(t.Args) == 0 {
		return t
	}
	if r, ok := memo[t]; ok {
		return r
	}
	var args []*Term
	for i, a := range t.Args {
		b := f.bindVars(a, binds, memo)
		if b != a && args == nil {
			args = make([]*Term, len(t.Args))
			copy(args, t.Args[:i])
		}
		if args != nil {
			args[i] = b
		}
	}
	r := t
	if args != nil {
		r = f.mk(t.Op, t.sort, t.B, t.I, t.S, args)
	}
	memo[t] = r
	return r
}

// concatEquality matches (= (str.++ t1 … tk) c) in either orientation,
// every ti a variable or a string constant and at least one a variable,
// returning the flattened parts and c.
func (f *Factory) concatEquality(l *Term) ([]*Term, string, bool) {
	if l.Op != OpEq || l.Args[0].Sort() != SortString {
		return nil, "", false
	}
	x, c := l.Args[0], l.Args[1]
	if x.Op == OpStrConst {
		x, c = c, x
	}
	if c.Op != OpStrConst || x.Op != OpConcat {
		return nil, "", false
	}
	parts := f.concatParts(x)
	hasVar := false
	for _, p := range parts {
		switch p.Op {
		case OpVar:
			hasVar = true
		case OpStrConst:
		default:
			return nil, "", false
		}
	}
	return parts, c.S, hasVar
}

// forEachSplit calls visit with each binding of the variables of parts
// under which their concatenation spells c, and reports whether visit
// returned true for all of them. It reports false, without finishing,
// when visit returns false or the enumeration would try more than
// *steps variable values. No split at all means the equality itself is
// unsatisfiable: the result is then true.
func (f *Factory) forEachSplit(parts []*Term, c string, steps *int, visit func(map[string]*Term) bool) bool {
	binds := map[string]*Term{}
	var rec func(i, pos int) bool
	rec = func(i, pos int) bool {
		if i == len(parts) {
			if pos != len(c) {
				return true
			}
			return visit(binds)
		}
		p := parts[i]
		fixed := p
		if p.Op == OpVar {
			fixed = binds[p.S]
		}
		if fixed != nil {
			if !strings.HasPrefix(c[pos:], fixed.S) {
				return true
			}
			return rec(i+1, pos+len(fixed.S))
		}
		// An unbound variable takes every substring starting at pos; the
		// last part must take the rest of c.
		lo := pos
		if i == len(parts)-1 {
			lo = len(c)
		}
		defer delete(binds, p.S)
		for end := lo; end <= len(c); end++ {
			if *steps--; *steps < 0 {
				return false
			}
			binds[p.S] = f.Str(c[pos:end])
			if !rec(i+1, end) {
				return false
			}
		}
		return true
	}
	return rec(0, 0)
}
