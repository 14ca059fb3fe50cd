package main

// The traced run of the scan-only workloads: each app is replayed through
// the layers' public calls, in the scanner's stage order, as attempt 0
// with zero-value layer options (the scanner's defaults), with a span
// around every call. The scanner itself is not instrumented.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/callgraph"
	"repro/internal/interp"
	"repro/internal/locality"
	"repro/internal/obs"
	"repro/internal/phpast"
	"repro/internal/phplex"
	"repro/internal/phpparser"
	"repro/internal/smt"
	"repro/internal/summary"
	"repro/internal/translate"
	"repro/internal/uchecker"
	"repro/internal/vulnmodel"
)

// span is one timed call. IDs are index+1 into tracer.spans; parent 0
// marks a top-level span.
type span struct {
	name       string
	parent     int
	start, end time.Duration // since the tracer's base
	allocStart uint64        // cumulative heap bytes allocated at start
	allocEnd   uint64
}

// tracer keeps every span in memory until the run ends. It is used from
// one goroutine, so a span's children never overlap and the time they
// cover is the sum of their durations.
type tracer struct {
	base   time.Time
	spans  []span
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) allocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

func (t *tracer) start(parent int, name string) int {
	a := t.allocs()
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.base), allocStart: a})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	s := &t.spans[id-1]
	s.end = time.Since(t.base)
	s.allocEnd = t.allocs()
}

// layerTotal is the self time and self allocation of one span name.
type layerTotal struct {
	busy  time.Duration
	alloc uint64
	calls int
}

// layers sums each span name's self time (its duration minus the time
// its children cover) and self allocation.
func (t *tracer) layers() map[string]layerTotal {
	childTime := make([]time.Duration, len(t.spans))
	childAlloc := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.parent > 0 {
			childTime[s.parent-1] += s.end - s.start
			childAlloc[s.parent-1] += s.allocEnd - s.allocStart
		}
	}
	out := map[string]layerTotal{}
	for i, s := range t.spans {
		lt := out[s.name]
		lt.busy += s.end - s.start - childTime[i]
		lt.alloc += s.allocEnd - s.allocStart - childAlloc[i]
		lt.calls++
		out[s.name] = lt
	}
	return out
}

// Span names, one per layer call.
const (
	spApp       = "uchecker.app"
	spRoot      = "uchecker.root"
	spLex       = "phplex"
	spParse     = "phpparser"
	spSummary   = "summary"
	spCallgraph = "callgraph"
	spLocality  = "locality"
	spInterp    = "interp"
	spModel     = "vulnmodel"
	spSolve     = "smt"
)

// appReplay is what replaying one app counted.
type appReplay struct {
	tokens, bytes         int
	paths, sinks, tainted int
	checks, sat           int
	summarized, reached   int
	nodes                 int
	// ladder marks an app whose attempt 0 failed on some root without
	// findings: the scanner then descends the degradation ladder, which
	// the replay does not follow.
	ladder bool
}

// replayApp runs one app through the layers as the scanner's attempt 0.
func replayApp(ctx context.Context, tr *tracer, t uchecker.Target, mode interp.InterprocKind) appReplay {
	var rp appReplay
	app := tr.start(0, spApp)
	defer tr.end(app)

	names := make([]string, 0, len(t.Sources))
	for n := range t.Sources {
		names = append(names, n)
	}
	sort.Strings(names)
	files := make([]*phpast.File, 0, len(names))
	for _, n := range names {
		src := t.Sources[n]
		// phpparser.Parse lexes internally; lexing once more on its own
		// splits the front end into its two layers.
		sp := tr.start(app, spLex)
		rp.tokens += len(phplex.New(n, src).Tokens())
		tr.end(sp)
		sp = tr.start(app, spParse)
		f, _ := phpparser.Parse(n, src)
		tr.end(sp)
		rp.bytes += len(src)
		if f != nil {
			files = append(files, f)
		}
	}

	engines := interp.NewEngineFactory(interp.EngineTree, files)
	var sums *summary.Set
	if mode == interp.InterprocSummary {
		sp := tr.start(app, spSummary)
		sums = summary.Build(files, smt.NewFactory())
		tr.end(sp)
		rp.summarized = sums.Computed
	}

	sp := tr.start(app, spCallgraph)
	g := callgraph.Build(files)
	tr.end(sp)
	rp.nodes = len(g.Nodes)
	sp = tr.start(app, spLocality)
	loc := locality.Analyze(g, files, t.Sources)
	tr.end(sp)
	if sums != nil {
		rp.reached = countReached(g, loc.Roots, sums)
	}

	for _, root := range loc.Roots {
		rs := tr.start(app, spRoot)
		replayRoot(ctx, tr, rs, engines, sums, root.Node, &rp)
		tr.end(rs)
	}
	return rp
}

// replayRoot is runRootAttempt + verifySinks at attempt 0.
func replayRoot(ctx context.Context, tr *tracer, parent int, engines *interp.EngineFactory, sums *summary.Set, root *callgraph.Node, rp *appReplay) {
	sp := tr.start(parent, spInterp)
	res := engines.New(interp.Options{Summaries: sums}).Run(ctx, root)
	tr.end(sp)
	rp.paths += res.Paths
	if res.Err != nil {
		rp.ladder = true // attempt 0 verifies nothing after an abort
		return
	}
	fac := smt.NewFactory()
	sess := smt.NewSolverWithFactory(smt.Options{}, fac).NewSession()
	trn := translate.NewWithFactory(res.Graph, fac)
	seen := map[string]bool{}
	failed := false
	for _, hit := range res.Sinks { //nolint:gocritic // mirrors the scanner's loop
		rp.sinks++
		sp := tr.start(parent, spModel)
		cand := vulnmodel.Model(res.Graph, trn, vulnmodel.Sink{
			Name: hit.Sink, File: hit.File, Line: hit.Line,
			Src: hit.Src, Dst: hit.Dst, Cur: hit.Env.Cur,
		}, vulnmodel.DefaultExtensions)
		tr.end(sp)
		if !cand.Tainted {
			continue
		}
		rp.tainted++
		key := fmt.Sprintf("%s:%d", cand.File, cand.Line)
		if seen[key] {
			continue
		}
		sp = tr.start(parent, spSolve)
		var (
			status = smt.Unsat
			st     smt.Stats
			err    error
		)
		sess.Push()
		sess.Assert(cand.Extension)
		if !sess.QuickUnsat(&st) {
			sess.Assert(cand.Reach)
			status, _, _, err = sess.CheckCtx(ctx)
		}
		sess.Pop()
		tr.end(sp)
		rp.checks++
		if status != smt.Sat {
			if errors.Is(err, smt.ErrBudget) {
				failed = true
			}
			continue
		}
		seen[key] = true
		rp.sat++
	}
	if failed && len(seen) == 0 {
		rp.ladder = true
	}
}

// countReached counts the summarized functions reachable in the call
// graph from any locality root.
func countReached(g *callgraph.Graph, roots []locality.Root, sums *summary.Set) int {
	seen := map[*callgraph.Node]bool{}
	var stack []*callgraph.Node
	for _, r := range roots {
		stack = append(stack, r.Node)
	}
	n := 0
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[nd] {
			continue
		}
		seen[nd] = true
		if nd.Kind == callgraph.FuncNode && sums.Lookup(nd.Name) != nil {
			n++
		}
		stack = append(stack, g.Succ[nd]...)
	}
	return n
}

// checkReplay is the replay fidelity check against the scanner's own
// report of the same app. It reports whether the app was replayed for
// attempt 0 only.
func checkReplay(o *outcome, name string, rp appReplay, rep *uchecker.AppReport) bool {
	if rep == nil {
		return false // already failed by the correctness gate
	}
	if rp.ladder {
		if rep.Retries == 0 && len(rep.Failures) == 0 {
			o.problem("%s: replay's attempt 0 failed, the scanner's did not", name)
		}
		return true
	}
	want := [4]int64{int64(rep.Paths), int64(rep.SinkCount), rep.Metrics["smt_checks"], rep.Metrics["summary_computed"]}
	got := [4]int64{int64(rp.paths), int64(rp.sinks), int64(rp.checks), int64(rp.summarized)}
	if got != want {
		o.problem("%s: replay diverged: paths/sinks/smt_checks/summarized %v, scanner %v", name, got, want)
	}
	return false
}

// memDelta is runtime allocation and GC activity between two readings.
type memDelta struct {
	allocMB  float64
	gcCycles float64
	pauseS   float64
}

func memBetween(a, b *runtime.MemStats) memDelta {
	return memDelta{
		allocMB:  float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20),
		gcCycles: float64(b.NumGC - a.NumGC),
		pauseS:   float64(b.PauseTotalNs-a.PauseTotalNs) / 1e9,
	}
}

// traced is the -trace 1 run of a scan workload: untraced serial passes
// (the scanner's own reports and counters) alternating with replayed
// passes in the same order, until the run's time is up. The screening
// run then measures the daemon layers on the same plugins.
func (wl *scanWorkload) traced(cfg config) (*outcome, error) {
	o := newOutcome()
	ctx := context.Background()
	tr := newTracer()
	serial := uchecker.NewScanner(uchecker.Options{Workers: 1, Interproc: wl.interproc})
	var (
		plainWalls, tracedWalls []float64
		first                   obs.Metrics
		mem                     memDelta
		sum                     appReplay
		ladder                  = map[string]bool{}
		exact                   int
		poolBusy                float64
	)
	if wl.batch {
		// Pool utilization of the batch worker pool: the scanners' summed
		// busy time over the batch's wall time × workers.
		res := wl.pass(ctx, o, identity(len(wl.apps)))
		poolBusy = sumSeconds(res.reports) / (seconds(res.wall) * float64(runtime.GOMAXPROCS(0)))
	}
	start := time.Now()
	for p := 0; p == 0 || time.Since(start) < cfg.dur; p++ {
		order := identity(len(wl.apps))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := wl.serialPass(ctx, serial, order)
		runtime.ReadMemStats(&after)
		d := memBetween(&before, &after)
		mem.allocMB += d.allocMB
		mem.gcCycles += d.gcCycles
		mem.pauseS += d.pauseS
		for _, i := range order {
			checkReport(o, &wl.apps[i], res.reports[i])
		}
		counters := reportCounters(res.reports)
		if first == nil {
			first = counters
			if !wl.batch {
				poolBusy = sumSeconds(res.reports) / seconds(res.wall)
			}
		} else {
			checkRepeat(o, first, counters, p)
		}

		// The overhead compares the apps replayed exactly: a ladder app's
		// scan also runs the retries its replay leaves out.
		var plain, traced float64
		for k, i := range order {
			app := wl.apps[i]
			runtime.GC() // as in serialPass
			t0 := time.Now()
			rp := replayApp(ctx, tr, app.target, wl.interproc)
			d := seconds(time.Since(t0))
			if checkReplay(o, app.target.Name, rp, res.reports[i]) {
				ladder[app.target.Name] = true
			} else {
				exact++
				plain += res.lats[k] / 1000
				traced += d
			}
			if p == 0 {
				sum.add(rp)
			}
		}
		plainWalls = append(plainWalls, plain)
		tracedWalls = append(tracedWalls, traced)
	}
	passes := float64(len(plainWalls))
	o.note("%d traced passes of %d apps; replay fidelity: %d app replays matched the scanner exactly, %d app(s) replayed for attempt 0 only %v",
		len(plainWalls), len(wl.apps), exact, len(ladder), sortedKeys(ladder))
	noteCounters(o, first)
	overhead := median(tracedWalls) - median(plainWalls)
	o.note("tracing overhead over the exactly replayed apps: traced %.3f s - untraced %.3f s = %.3f s a pass", median(tracedWalls), median(plainWalls), overhead)

	layers := tr.layers()
	busy := func(name string) float64 { return seconds(layers[name].busy) / passes }
	allocMB := func(name string) float64 { return float64(layers[name].alloc) / (1 << 20) / passes }
	m := layerValues{}
	m["phplex.busy_s"] = busy(spLex)
	m["phplex.tokens"] = float64(sum.tokens)
	m["phpparser.busy_s"] = max(0, busy(spParse)-busy(spLex))
	if b := busy(spParse); b > 0 {
		m["phpparser.mb_per_s"] = float64(sum.bytes) / 1e6 / b
	}
	m["phpparser.alloc_mb"] = max(0, allocMB(spParse)-allocMB(spLex))
	m["phpparser.syntax_errors"] = float64(first["report_parse_errors"])
	m["summary.busy_s"] = busy(spSummary)
	m["summary.alloc_mb"] = allocMB(spSummary)
	m["summary.functions"] = float64(first["summary_computed"])
	m["summary.reached_share"] = share(sum.reached, sum.summarized)
	m["summary.instantiated"] = float64(first["summary_instantiated"])
	m["summary.escaped_callees"] = float64(first["summary_escaped_callees"])
	m["interp.busy_s"] = busy(spInterp)
	m["interp.alloc_mb"] = allocMB(spInterp)
	m["interp.paths"] = float64(first["report_paths"])
	m["interp.paths_forked"] = float64(first["interp_paths_forked"])
	m["interp.paths_avoided"] = float64(first["interp_paths_avoided"])
	m["interp.objects"] = float64(first["report_objects"])
	m["interp.live_envs_peak"] = float64(first["interp_live_envs_peak"])
	m["interp.budget_aborts"] = float64(first["report_failures_path_budget"] + first["report_failures_object_budget"])
	m["smt.busy_s"] = busy(spSolve)
	m["smt.alloc_mb"] = allocMB(spSolve)
	m["smt.checks"] = float64(first["smt_checks"])
	m["smt.models_tried"] = float64(first["smt_models_tried"])
	m["smt.cubes"] = float64(first["smt_cubes_examined"])
	m["smt.sat_share"] = share(sum.sat, sum.checks)
	m["smt.budget_exhausted"] = float64(first["report_failures_solver_budget"])
	m["callgraph.busy_s"] = busy(spCallgraph)
	m["callgraph.nodes"] = float64(sum.nodes)
	m["locality.busy_s"] = busy(spLocality)
	m["locality.roots"] = float64(first["locality_roots_found"])
	m["locality.files_pruned_share"] = share64(first["locality_files_pruned"], first["locality_files_total"])
	m["locality.analyzed_loc_share"] = share64(first["report_loc_analyzed"], first["report_loc_total"])
	m["vulnmodel.busy_s"] = busy(spModel)
	m["vulnmodel.sinks"] = float64(first["report_sink_count"])
	m["vulnmodel.tainted_share"] = share(sum.tainted, sum.sinks)
	m["uchecker.retries"] = float64(first["report_retries"])
	m["uchecker.pool_busy_share"] = poolBusy
	m["runtime.alloc_mb"] = mem.allocMB / passes
	m["runtime.gc_cycles"] = mem.gcCycles / passes
	m["runtime.gc_pause_s"] = mem.pauseS / passes
	m["trace.overhead_s"] = overhead
	if wl.batch {
		if err := measureDaemon(cfg, o, wl.apps, m); err != nil {
			return nil, err
		}
	}
	m.report(o)
	return o, nil
}

func (a *appReplay) add(b appReplay) {
	a.tokens += b.tokens
	a.bytes += b.bytes
	a.paths += b.paths
	a.sinks += b.sinks
	a.tainted += b.tainted
	a.checks += b.checks
	a.sat += b.sat
	a.summarized += b.summarized
	a.reached += b.reached
	a.nodes += b.nodes
}

func sumSeconds(reps []*uchecker.AppReport) float64 {
	s := 0.0
	for _, r := range reps {
		if r != nil {
			s += r.Seconds
		}
	}
	return s
}

func share(num, den int) float64 { return share64(int64(num), int64(den)) }

func share64(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// layerValues holds a traced run's per-layer metrics by name.
type layerValues map[string]float64

// report emits every per-layer metric, in layerMetrics order; layers a
// workload does not exercise read 0.
func (m layerValues) report(o *outcome) {
	for _, lm := range layerMetrics {
		o.set(lm.name, lm.unit, m[lm.name])
	}
	for name := range m {
		if unitOf(name) == "" {
			panic("ucbench: unlisted per-layer metric " + name)
		}
	}
}

func unitOf(name string) string {
	for _, lm := range layerMetrics {
		if lm.name == name {
			return lm.unit
		}
	}
	return ""
}

// layerMetrics is every per-layer metric, grouped by module.
var layerMetrics = []struct{ name, unit string }{
	{"phplex.busy_s", "s"}, {"phplex.tokens", "count"},
	{"phpparser.busy_s", "s"}, {"phpparser.mb_per_s", "MB/s"}, {"phpparser.alloc_mb", "MB"}, {"phpparser.syntax_errors", "count"},
	{"summary.busy_s", "s"}, {"summary.alloc_mb", "MB"}, {"summary.functions", "count"}, {"summary.reached_share", "share"},
	{"summary.instantiated", "count"}, {"summary.escaped_callees", "count"},
	{"interp.busy_s", "s"}, {"interp.alloc_mb", "MB"}, {"interp.paths", "count"}, {"interp.paths_forked", "count"},
	{"interp.paths_avoided", "count"}, {"interp.objects", "count"}, {"interp.live_envs_peak", "count"}, {"interp.budget_aborts", "count"},
	{"smt.busy_s", "s"}, {"smt.alloc_mb", "MB"}, {"smt.checks", "count"}, {"smt.models_tried", "count"},
	{"smt.cubes", "count"}, {"smt.sat_share", "share"}, {"smt.budget_exhausted", "count"},
	{"callgraph.busy_s", "s"}, {"callgraph.nodes", "count"},
	{"locality.busy_s", "s"}, {"locality.roots", "count"}, {"locality.files_pruned_share", "share"}, {"locality.analyzed_loc_share", "share"},
	{"vulnmodel.busy_s", "s"}, {"vulnmodel.sinks", "count"}, {"vulnmodel.tainted_share", "share"},
	{"uchecker.retries", "count"}, {"uchecker.pool_busy_share", "share"},
	{"scanjournal.appends", "count"}, {"scanjournal.append_ms_p50", "ms"}, {"scanjournal.append_ms_p95", "ms"},
	{"scanjournal.cache_put_ms_p50", "ms"}, {"scanjournal.cache_get_ms_p50", "ms"},
	{"scand.submit_ms_p50", "ms"}, {"scand.queue_wait_ms_p50", "ms"}, {"scand.queue_wait_ms_p95", "ms"},
	{"scand.run_ms_p50", "ms"}, {"scand.result_ms_p50", "ms"}, {"scand.shed", "count"}, {"scand.jobs_failed", "count"},
	{"scand.light_lat_ms_p50", "ms"}, {"scand.light_lat_ms_p95", "ms"}, {"scand.heavy_lat_ms_p50", "ms"}, {"scand.heavy_lat_ms_p95", "ms"},
	{"scand.trace_overhead_ms", "ms"},
	{"runtime.alloc_mb", "MB"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_pause_s", "s"},
	{"trace.overhead_s", "s"}, {"loadgen.late_ms_max", "ms"}, {"loadgen.backlog_grew", "count"},
}
