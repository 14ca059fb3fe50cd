package main

// The scan-only workloads: corpus-inline, corpus-summary and screening.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/uchecker"
)

const (
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median.
	setupReps = 5
	// minVerdicts is the fewest verdicts a corpus run takes: three passes,
	// so that ten or more lie beyond the run's p90 and the per-pass
	// medians have three passes to choose from.
	minVerdicts = 100
	// Screening population: 400 generated plugins (≈12.5 MB), one in 20
	// planted with an unrestricted upload. A smaller population lets the
	// seed move the work per pass by several percent.
	screeningPlugins = 400
	plantEvery       = 20
)

// scanApp is one target with the verdict it must get.
type scanApp struct {
	target uchecker.Target
	want   bool
	bytes  int
}

// scanWorkload is a generated input set plus the scanner options of the
// measured loop.
type scanWorkload struct {
	apps      []scanApp
	interproc interp.InterprocKind
	// batch scans each pass as one ScanBatch at Workers=GOMAXPROCS
	// (screening); otherwise each app is scanned alone through ScanBatch
	// at Workers=1, the uchecker CLI's path (corpus workloads).
	batch   bool
	scanner *uchecker.Scanner
}

func newScanWorkload(cfg config) *scanWorkload {
	wl := &scanWorkload{}
	switch cfg.workload {
	case wlScreening:
		wl.batch = true
		for _, p := range corpus.RandomPlugins(cfg.seed, screeningPlugins, plantEvery) {
			wl.apps = append(wl.apps, newScanApp(p.Name, p.Sources, p.Planted))
		}
		wl.scanner = uchecker.NewScanner(uchecker.Options{})
	default:
		if cfg.workload == wlCorpusSummary {
			wl.interproc = interp.InterprocSummary
		}
		for _, a := range corpus.All() {
			wl.apps = append(wl.apps, newScanApp(a.Name, a.Sources, corpusVerdict(a, wl.interproc)))
		}
		wl.scanner = uchecker.NewScanner(uchecker.Options{Workers: 1, Interproc: wl.interproc})
	}
	return wl
}

func newScanApp(name string, sources map[string]string, want bool) scanApp {
	n := 0
	for _, s := range sources {
		n += len(s)
	}
	return scanApp{target: uchecker.Target{Name: name, Sources: sources}, want: want, bytes: n}
}

// corpusVerdict is the verdict the scanner must reach on a corpus app.
// Named Table III apps must reproduce the paper's Detected column,
// including the two admin-gated false positives and the Cimy miss under
// inline. The summary strategy removes that miss — Cimy's path-budget
// exhaustion — so under summary every vulnerable app is detected.
func corpusVerdict(a corpus.App, mode interp.InterprocKind) bool {
	want := a.Vulnerable
	if a.Paper != nil {
		want = a.Paper.Detected
	}
	if mode == interp.InterprocSummary {
		want = want || a.Vulnerable
	}
	return want
}

// warm scans a few of the smallest apps once, so lazily built tables and
// the heap's first growth are paid before timing starts.
func (wl *scanWorkload) warm(ctx context.Context) {
	idx := make([]int, len(wl.apps))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return wl.apps[idx[a]].bytes < wl.apps[idx[b]].bytes })
	var ts []uchecker.Target
	for _, i := range idx[:min(4, len(idx))] {
		ts = append(ts, wl.apps[i].target)
	}
	wl.scanner.ScanBatch(ctx, ts)
}

// passResult is one pass over every app.
type passResult struct {
	wall     time.Duration
	lats     []float64             // per-app time to verdict, ms
	reports  []*uchecker.AppReport // aligned with wl.apps
	counters obs.Metrics
}

// pass scans every app once in the measured loop's way.
func (wl *scanWorkload) pass(ctx context.Context, o *outcome, order []int) passResult {
	var res passResult
	if wl.batch {
		res.reports = make([]*uchecker.AppReport, len(wl.apps))
		ts := make([]uchecker.Target, len(order))
		for k, i := range order {
			ts[k] = wl.apps[i].target
		}
		runtime.GC() // every pass starts from a collected heap
		start := time.Now()
		for k, rep := range wl.scanner.ScanBatch(ctx, ts) {
			res.reports[order[k]] = rep
			if rep != nil {
				res.lats = append(res.lats, rep.Seconds*1000)
			}
		}
		res.wall = time.Since(start)
	} else {
		res = wl.serialPass(ctx, wl.scanner, order)
	}
	for _, i := range order {
		checkReport(o, &wl.apps[i], res.reports[i])
	}
	res.counters = reportCounters(res.reports)
	return res
}

// serialPass scans the apps one at a time, each alone through ScanBatch;
// the pass's wall time is the sum of the per-app times.
func (wl *scanWorkload) serialPass(ctx context.Context, sc *uchecker.Scanner, order []int) passResult {
	res := passResult{reports: make([]*uchecker.AppReport, len(wl.apps))}
	for _, i := range order {
		// Each app starts from a collected heap, as in a fresh uchecker
		// process: otherwise the heap goal a large app leaves behind
		// (Cimy peaks near 2 GB) decides how often the next ones collect.
		runtime.GC()
		t0 := time.Now()
		rep := sc.ScanBatch(ctx, []uchecker.Target{wl.apps[i].target})[0]
		d := time.Since(t0)
		res.wall += d
		res.lats = append(res.lats, millis(d))
		res.reports[i] = rep
	}
	return res
}

// checkReport is the correctness gate for one scan.
func checkReport(o *outcome, app *scanApp, rep *uchecker.AppReport) {
	o.attempted++
	name := app.target.Name
	if rep == nil {
		o.fail("%s: no report", name)
		return
	}
	if rep.Name != name {
		o.fail("%s: report carries name %q", name, rep.Name)
		return
	}
	if rep.Vulnerable != app.want {
		o.fail("%s: verdict vulnerable=%v, want %v", name, rep.Vulnerable, app.want)
		return
	}
	for class, n := range rep.FailureCounts {
		if hardFailure(class) {
			o.fail("%s: %d %s failure(s)", name, n, class)
			return
		}
	}
}

// hardFailure tells a failed operation from the degradation ladder's
// expected budget aborts (the paper's Cimy semantics).
func hardFailure(c uchecker.FailureClass) bool {
	switch c {
	case uchecker.FailPathBudget, uchecker.FailObjectBudget, uchecker.FailSolverBudget:
		return false
	}
	return true
}

// reportCounters folds the deterministic work counters of a pass: every
// AppReport.Metrics counter plus the report's own count fields.
func reportCounters(reps []*uchecker.AppReport) obs.Metrics {
	m := obs.NewMetrics()
	for _, r := range reps {
		if r == nil {
			continue
		}
		m.Merge(r.Metrics)
		m.Add("report_paths", int64(r.Paths))
		m.Add("report_objects", int64(r.Objects))
		m.Add("report_sink_count", int64(r.SinkCount))
		m.Add("report_retries", int64(r.Retries))
		m.Add("report_parse_errors", int64(r.ParseErrors))
		m.Add("report_loc_total", int64(r.TotalLoC))
		m.Add("report_loc_analyzed", int64(r.AnalyzedLoC))
		m.Add("report_findings", int64(len(r.Findings)))
		for class, n := range r.FailureCounts {
			m.Add("report_failures_"+strings.ReplaceAll(string(class), "-", "_"), int64(n))
		}
	}
	return m
}

// counterDigest is a short hash of a counter set, for comparing runs.
func counterDigest(m obs.Metrics) string {
	h := sha256.New()
	for _, k := range m.Keys() {
		fmt.Fprintf(h, "%s=%d\n", k, m[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func sameCounters(a, b obs.Metrics) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// noteCounters prints a pass's counters and their digest.
func noteCounters(o *outcome, m obs.Metrics) {
	o.note("counters per pass (deterministic; digest %s):", counterDigest(m))
	for _, k := range m.Keys() {
		o.note("  counter %-36s %d", k, m[k])
	}
}

// checkRepeat fails the run when a pass's counters differ from the
// first pass's: the same inputs must do exactly the same work.
func checkRepeat(o *outcome, first, m obs.Metrics, pass int) {
	if !sameCounters(first, m) {
		o.problem("counters of pass %d differ from pass 0 (digest %s vs %s)", pass, counterDigest(m), counterDigest(first))
	}
}

// setupScanWorkload generates the inputs and warms the scanner up,
// setupReps times; it returns the last workload and every setup time.
func setupScanWorkload(cfg config) (wl *scanWorkload, setups []float64) {
	ctx := context.Background()
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		wl = newScanWorkload(cfg)
		wl.warm(ctx)
		setups = append(setups, seconds(time.Since(t0)))
	}
	return wl, setups
}

func runScanWorkload(cfg config) (*outcome, error) {
	wl, setups := setupScanWorkload(cfg)
	if cfg.trace {
		return wl.traced(cfg)
	}
	o := newOutcome()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(cfg.seed))
	minPasses := 1
	if !wl.batch {
		minPasses = (minVerdicts + len(wl.apps) - 1) / len(wl.apps)
	}
	var (
		walls, p50s, p90s []float64
		verdicts          int
		first             obs.Metrics
	)
	start := time.Now()
	for p := 0; p < minPasses || time.Since(start) < cfg.dur; p++ {
		order := identity(len(wl.apps))
		if !wl.batch {
			order = rng.Perm(len(wl.apps))
		}
		res := wl.pass(ctx, o, order)
		walls = append(walls, seconds(res.wall))
		p50s = append(p50s, percentile(res.lats, 50))
		p90s = append(p90s, percentile(res.lats, 90))
		verdicts += len(res.lats)
		if first == nil {
			first = res.counters
		} else {
			checkRepeat(o, first, res.counters, p)
		}
	}
	bytes := 0
	for _, a := range wl.apps {
		bytes += a.bytes
	}
	o.note("%d apps (%.2f MB of PHP) per pass, %d passes, %d verdicts", len(wl.apps), float64(bytes)/1e6, len(walls), verdicts)
	o.note("pass walls (s): %s", formatList(walls))
	noteCounters(o, first)

	wall := median(walls)
	o.set("setup_s", "s", median(setups))
	o.set("wall_s", "s", wall)
	// Every timing is a per-pass figure, medianed over the run's passes:
	// the machine's speed drifts within a run, and a pooled percentile
	// follows the drift where a median of passes does not.
	o.set("verdict_ms_p50", "ms", median(p50s))
	o.set("verdict_ms_p90", "ms", median(p90s))
	o.set("apps_per_s", "1/s", float64(len(wl.apps))/wall)
	return o, nil
}

func formatList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
