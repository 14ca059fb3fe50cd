// Command ucbench is the repository's benchmark: it runs one named
// workload against the scanner's public API, checks every verdict against
// the known answer, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (untraced); with
// -trace 1 the same workload is replayed through each layer's public
// calls with spans recorded around them, and the metrics are per layer.
// See README.md for the workloads and the metric → layer → workload map.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash ucbench/run.sh --workload corpus-inline --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Workload names.
const (
	wlCorpusInline  = "corpus-inline"
	wlCorpusSummary = "corpus-summary"
	wlScreening     = "screening"
)

var workloads = []string{wlCorpusInline, wlCorpusSummary, wlScreening}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	// state is the directory the run may write to (daemon state, journal
	// replay); everything created under it is removed before exit.
	state string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome accumulates one run's verdict checks and metrics.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	notes     []string
	names     []string // metric names in report order
	metrics   map[string]metric
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

// set records a metric; the first call fixes its position in the report.
func (o *outcome) set(name, unit string, v float64) {
	if _, ok := o.metrics[name]; !ok {
		o.names = append(o.names, name)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed operation and keeps its description.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// problem records a check failure that is not an operation of its own
// (a replay divergence, a counter that did not repeat).
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) correct() bool { return o.failed == 0 && len(o.problems) == 0 }

// write prints the human-readable report and, last, the JSON line.
func (o *outcome) write(w io.Writer, cfg config) error {
	bw := bufio.NewWriter(w)
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(bw, "workload %s seed %d seconds %g (%s)\n", cfg.workload, cfg.seed, cfg.dur.Seconds(), mode)
	for _, n := range o.notes {
		fmt.Fprintln(bw, n)
	}
	for _, p := range o.problems {
		fmt.Fprintln(bw, "FAIL", p)
	}
	share := 0.0
	if o.attempted > 0 {
		share = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(bw, "%-34s %14.6g %s (%d of %d)\n", "failed_share", share, "share", o.failed, o.attempted)
	for _, n := range o.names {
		m := o.metrics[n]
		fmt.Fprintf(bw, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.correct(), o.attempted, o.failed, o.metrics})
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteString("\n")
	return bw.Flush()
}

func main() { os.Exit(run()) }

func run() int {
	var (
		cfg     config
		seconds = flag.Int("seconds", 10, "how long one run measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	)
	flag.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.StringVar(&cfg.state, "state", ".bench_build", "directory for run state (removed at exit)")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "ucbench: want --seconds >= 1 and --trace 0|1")
		return 2
	}
	cfg.dur = time.Duration(*seconds) * time.Second
	cfg.trace = *trace == 1

	if err := os.MkdirAll(cfg.state, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ucbench:", err)
		return 2
	}
	state, err := os.MkdirTemp(cfg.state, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ucbench:", err)
		return 2
	}
	defer os.RemoveAll(state)
	cfg.state = state

	var o *outcome
	switch cfg.workload {
	case wlCorpusInline, wlCorpusSummary, wlScreening:
		o, err = runScanWorkload(cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ucbench:", err)
		return 2
	}
	if !cfg.trace {
		o.set("peak_rss_mb", "MB", peakRSSMB())
	}
	if err := o.write(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "ucbench:", err)
		return 2
	}
	if !o.correct() {
		return 1
	}
	return 0
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	raw, err := os.ReadFile(filepath.Join("/proc", "self", "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
