package uchecker

import (
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/interp"
)

// TestPortfolioShowcaseProvedUnsat pins the one verdict change the
// solver's refutation pass made. portfolio-showcase guards its upload
// with a pinned file name, and its constraint is
//
//	str.suffixof(".php", p ++ "/" ++ str.replace(name ++ "." ++ ext, "zip", "dat"))
//	∧ name ++ "." ++ ext = "portfolio.zip"
//
// Bounded enumeration ran out of its 500,000-assignment budget on it
// (Unknown, a solver-budget failure and a degraded retry). Splitting the
// constant proves it Unsat on the first attempt with no model search, in
// both interprocedural strategies and with or without interning.
func TestPortfolioShowcaseProvedUnsat(t *testing.T) {
	app, ok := corpus.ByName("portfolio-showcase")
	if !ok {
		t.Fatal("missing corpus app portfolio-showcase")
	}
	for _, mode := range []interp.InterprocKind{interp.InterprocInline, interp.InterprocSummary} {
		for _, disable := range []bool{false, true} {
			rep, err := NewScanner(Options{Interproc: mode, DisableIntern: disable}).
				Scan(context.Background(), Target{Name: app.Name, Sources: app.Sources})
			if err != nil {
				t.Fatalf("%s (no-intern=%t): %v", mode, disable, err)
			}
			for _, f := range rep.Failures {
				if f.Class == FailSolverBudget {
					t.Errorf("%s (no-intern=%t): solver-budget failure: %+v", mode, disable, f)
				}
			}
			m := rep.Metrics
			if rep.Retries != 0 || rep.Vulnerable || len(rep.Findings) != 0 {
				t.Errorf("%s (no-intern=%t): retries=%d vulnerable=%t findings=%d, want a clean benign verdict",
					mode, disable, rep.Retries, rep.Vulnerable, len(rep.Findings))
			}
			if m["smt_checks"] == 0 || m["smt_models_tried"] != 0 ||
				m["smt_unsat_proved"] != m["smt_checks"] || m["smt_unsat_exhausted"] != 0 {
				t.Errorf("%s (no-intern=%t): checks=%d models=%d proved=%d exhausted=%d, want every check proved with no models",
					mode, disable, m["smt_checks"], m["smt_models_tried"], m["smt_unsat_proved"], m["smt_unsat_exhausted"])
			}
		}
	}
}

// TestCorpusUnsatNeverExhausted: no benign verdict in the corpus rests
// on an exhausted candidate search — every Unsat is proved. A new app
// whose Unsat is only exhausted fails here, and is the cue to extend the
// refuter rather than trust the bound.
func TestCorpusUnsatNeverExhausted(t *testing.T) {
	sc := NewScanner(Options{Interproc: interp.InterprocSummary, Workers: 1})
	for _, app := range corpus.All() {
		rep, err := sc.Scan(context.Background(), Target{Name: app.Name, Sources: app.Sources})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if n := rep.Metrics["smt_unsat_exhausted"]; n != 0 {
			t.Errorf("%s: %d exhausted unsat verdicts", app.Name, n)
		}
	}
}
