package uchecker

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/corpus"
)

// TestCimyInlineAllocationBound guards the cost of forking paths. An
// inline scan of Cimy User Extra Fields forks ~344k times in one wide
// file-level frame before the path budget aborts it; copying that frame
// on the first write after each fork allocated ~2.3 GB, while layered
// frames and the label-indexed heap graph need well under 1 GiB. The test
// is not parallel: TotalAlloc is process-wide.
func TestCimyInlineAllocationBound(t *testing.T) {
	app, ok := corpus.ByName("Cimy User Extra Fields 2.3.8")
	if !ok {
		t.Fatal("missing Cimy corpus app")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := NewScanner(Options{Workers: 1}).Scan(context.Background(), Target{Name: app.Name, Sources: app.Sources})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.BudgetExceeded || rep.Paths != 248832 || rep.Objects != 1243409 {
		t.Fatalf("Cimy inline: budget exceeded %v, %d paths, %d objects; want true, 248832, 1243409",
			rep.BudgetExceeded, rep.Paths, rep.Objects)
	}
	const limit = 1 << 30
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("Cimy inline scan allocated %d MB, want under %d MB", got>>20, limit>>20)
	}
	t.Logf("Cimy inline scan allocated %d MB", (after.TotalAlloc-before.TotalAlloc)>>20)
}
