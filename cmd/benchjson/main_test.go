package main

import (
	"regexp"
	"strings"
	"testing"
)

func mkDoc(results ...result) *doc {
	return &doc{Env: map[string]string{}, Results: results}
}

func res(name string, ns, allocs float64) result {
	return result{
		Name:       name,
		Iterations: 10,
		Metrics:    map[string]float64{"ns/op": ns, "allocs/op": allocs, "B/op": 1 << 20},
	}
}

func TestParseBench(t *testing.T) {
	text := `goos: linux
goarch: amd64
pkg: repro
cpu: test-cpu
BenchmarkEngineSymbolicExecution/vm-8   16   129412136 ns/op   74034659 B/op   265257 allocs/op
PASS
`
	d, err := parseBench(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(d.Results))
	}
	r := d.Results[0]
	if r.Name != "BenchmarkEngineSymbolicExecution/vm-8" || r.Iterations != 16 {
		t.Errorf("bad result header: %+v", r)
	}
	if r.Metrics["ns/op"] != 129412136 || r.Metrics["allocs/op"] != 265257 {
		t.Errorf("bad metrics: %v", r.Metrics)
	}
	if d.Env["goos"] != "linux" || d.Env["pkg"] != "repro" {
		t.Errorf("bad env: %v", d.Env)
	}
}

func TestDiffWithinThreshold(t *testing.T) {
	base := mkDoc(res("BenchmarkEngineSymbolicExecution/vm-8", 100, 1000))
	fresh := mkDoc(res("BenchmarkEngineSymbolicExecution/vm-8", 114, 1000))
	var sb strings.Builder
	if n := diff(base, fresh, regexp.MustCompile(""), 15, &sb); n != 0 {
		t.Fatalf("14%% drift flagged as regression:\n%s", sb.String())
	}
}

func TestDiffNsRegression(t *testing.T) {
	base := mkDoc(res("BenchmarkEngineSymbolicExecution/vm-8", 100, 1000))
	fresh := mkDoc(res("BenchmarkEngineSymbolicExecution/vm-8", 120, 1000))
	var sb strings.Builder
	if n := diff(base, fresh, regexp.MustCompile(""), 15, &sb); n != 1 {
		t.Fatalf("got %d regressions, want 1 (ns/op +20%%):\n%s", n, sb.String())
	}
	if !strings.Contains(sb.String(), "FAIL") {
		t.Errorf("report lacks FAIL line:\n%s", sb.String())
	}
}

func TestDiffAllocRegression(t *testing.T) {
	base := mkDoc(res("b", 100, 1000))
	fresh := mkDoc(res("b", 100, 1200))
	if n := diff(base, fresh, regexp.MustCompile(""), 15, &strings.Builder{}); n != 1 {
		t.Fatalf("got %d regressions, want 1 (allocs/op +20%%)", n)
	}
}

func TestDiffImprovementPasses(t *testing.T) {
	base := mkDoc(res("b", 100, 1000))
	fresh := mkDoc(res("b", 50, 500))
	if n := diff(base, fresh, regexp.MustCompile(""), 15, &strings.Builder{}); n != 0 {
		t.Fatalf("improvement flagged as regression")
	}
}

func TestDiffMissingBenchFails(t *testing.T) {
	base := mkDoc(res("BenchmarkEngineCompile-8", 100, 1000))
	fresh := mkDoc()
	if n := diff(base, fresh, regexp.MustCompile(""), 15, &strings.Builder{}); n != 1 {
		t.Fatalf("dropped benchmark not flagged")
	}
}

func TestDiffMatchFilter(t *testing.T) {
	base := mkDoc(res("BenchmarkEngineCompile-8", 100, 1000), res("BenchmarkOther-8", 100, 1000))
	fresh := mkDoc(res("BenchmarkEngineCompile-8", 100, 1000), res("BenchmarkOther-8", 500, 1000))
	re := regexp.MustCompile("^BenchmarkEngine")
	if n := diff(base, fresh, re, 15, &strings.Builder{}); n != 0 {
		t.Fatalf("-match did not exclude non-engine regression")
	}
}

func TestDiffIgnoresProcsSuffix(t *testing.T) {
	base := mkDoc(res("BenchmarkEngineCompile", 100, 1000), res("BenchmarkEngineSymbolicExecution/vm", 100, 1000))
	fresh := mkDoc(res("BenchmarkEngineCompile-2", 100, 1000), res("BenchmarkEngineSymbolicExecution/vm-2", 130, 1000))
	var sb strings.Builder
	if n := diff(base, fresh, regexp.MustCompile("^BenchmarkEngine"), 15, &sb); n != 1 {
		t.Fatalf("got %d regressions, want 1 (vm ns/op +30%%, names paired across the -2 suffix):\n%s", n, sb.String())
	}
	if strings.Contains(sb.String(), "missing") {
		t.Fatalf("suffix-only difference reported as a missing benchmark:\n%s", sb.String())
	}
	// The reverse: a suffixed baseline against a GOMAXPROCS=1 run.
	if n := diff(fresh, base, regexp.MustCompile(""), 15, &strings.Builder{}); n != 0 {
		t.Fatalf("suffixed baseline vs unsuffixed run: %d regressions, want 0", n)
	}
}

func TestDiffUsesMedianOfCounts(t *testing.T) {
	// Five -count runs per side. One outlier on either side must not
	// decide the verdict: the baseline's median is 100, the fresh
	// side's 110 (+10%), within a 15% bound although the fresh run's
	// last result alone is +40%.
	base := mkDoc(res("BenchmarkEngineCorpus/tree-2", 100, 1000), res("BenchmarkEngineCorpus/tree-2", 60, 1000),
		res("BenchmarkEngineCorpus/tree-2", 104, 1000), res("BenchmarkEngineCorpus/tree-2", 98, 1000),
		res("BenchmarkEngineCorpus/tree-2", 101, 1000))
	fresh := mkDoc(res("BenchmarkEngineCorpus/tree-2", 108, 1000), res("BenchmarkEngineCorpus/tree-2", 110, 1000),
		res("BenchmarkEngineCorpus/tree-2", 112, 1000), res("BenchmarkEngineCorpus/tree-2", 95, 1000),
		res("BenchmarkEngineCorpus/tree-2", 140, 1000))
	var sb strings.Builder
	if n := diff(base, fresh, regexp.MustCompile(""), 15, &sb); n != 0 {
		t.Fatalf("median +10%% flagged as regression:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "100 -> 110") || !strings.Contains(sb.String(), "median of 5 vs 5 runs") {
		t.Errorf("report does not compare the medians:\n%s", sb.String())
	}
	if got := strings.Count(sb.String(), "ns/op"); got != 1 {
		t.Errorf("a name run 5 times reported %d ns/op lines, want 1:\n%s", got, sb.String())
	}

	// A regression in the median fails even when some runs are fast.
	fresh = mkDoc(res("BenchmarkEngineCorpus/tree-2", 90, 1000), res("BenchmarkEngineCorpus/tree-2", 125, 1000),
		res("BenchmarkEngineCorpus/tree-2", 130, 1000), res("BenchmarkEngineCorpus/tree-2", 95, 1000),
		res("BenchmarkEngineCorpus/tree-2", 121, 1000))
	if n := diff(base, fresh, regexp.MustCompile(""), 15, &strings.Builder{}); n != 1 {
		t.Fatalf("median +21%% (121 vs 100): got %d regressions, want 1", n)
	}

	// A one-run baseline, as committed before baselines held five runs,
	// is compared as is against the fresh median.
	base = mkDoc(res("BenchmarkEngineCorpus/tree-2", 100, 1000))
	sb.Reset()
	if n := diff(base, fresh, regexp.MustCompile(""), 15, &sb); n != 1 {
		t.Fatalf("one-run baseline 100 vs fresh median 121: got %d regressions, want 1", n)
	}
	if !strings.Contains(sb.String(), "median of 1 vs 5 runs") {
		t.Errorf("report does not name the run counts:\n%s", sb.String())
	}

	// An even count takes the mean of the two middle runs.
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", m)
	}
}
