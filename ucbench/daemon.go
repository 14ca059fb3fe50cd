package main

// The daemon layers, measured in the screening workload's traced run:
// scand.Open with ucheckerd's default configuration, served by httptest
// on loopback, fed the screening plugins by one generator goroutine while
// one collector goroutine polls for each job's result (at most two
// connections). As a workload of its own, with its latencies gated, it
// moved by 20–40% between runs on a 2-vCPU machine, more than any useful
// regression bound, so its numbers are per layer, without a bound.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/scand"
	"repro/internal/scanjournal"
	"repro/internal/uchecker"
)

const (
	// scanWorkers is ucheckerd's default -scan-workers.
	scanWorkers = 2
	// lightRate and heavyRate are the open loop's two fixed rates, about
	// 30% and 50% of the daemon's capacity (≈100 jobs/s) on a 2-vCPU
	// machine.
	lightRate = 30.0
	heavyRate = 50.0
	// latencyLimit is the latency a phase's backlog is judged against.
	latencyLimit = 250 * time.Millisecond
	// warmJobs are awaited one by one after each daemon open.
	warmJobs = 4
	// pollInterval is the collector's pause after a sweep over the
	// outstanding jobs found none finished.
	pollInterval = time.Millisecond
)

// plugin is one generated submit payload.
type plugin struct {
	slug    string
	sources map[string]string
	srcJSON []byte // the JSON encoding of sources
	want    bool
}

// daemonPlugins encodes the apps as submit payloads. Every submit
// carries a fresh job name, so none is a result-cache hit.
func daemonPlugins(apps []scanApp) ([]*plugin, error) {
	out := make([]*plugin, 0, len(apps))
	for _, a := range apps {
		raw, err := json.Marshal(a.target.Sources)
		if err != nil {
			return nil, err
		}
		out = append(out, &plugin{slug: a.target.Name, sources: a.target.Sources, srcJSON: raw, want: a.want})
	}
	return out, nil
}

// cycle returns the plugins one after another in seeded permutations of
// the pool, so every stretch of submits carries nearly the same mix.
func cycle(pool []*plugin, rng *rand.Rand) func() *plugin {
	var order []int
	return func() *plugin {
		if len(order) == 0 {
			order = rng.Perm(len(pool))
		}
		p := pool[order[0]]
		order = order[1:]
		return p
	}
}

// job is one submit and its outcome.
type job struct {
	p      *plugin
	name   string
	due    time.Time
	id     string
	lat    time.Duration
	report []byte
}

// rig is one open daemon with its loopback server and client.
type rig struct {
	dir    string
	d      *scand.Daemon
	srv    *httptest.Server
	client *http.Client
	seq    int
	// timer and scans are set on traced rigs only.
	timer *handlerTimer
	scans *scanSpans
}

func openRig(dir string, traced bool) (*rig, error) {
	r := &rig{dir: dir}
	cfg := scand.Config{
		Dir:         dir,
		Scan:        uchecker.Options{Workers: runtime.GOMAXPROCS(0)},
		ScanWorkers: scanWorkers,
		Default:     scand.TenantPolicy{Burst: 4},
	}
	if traced {
		r.scans = &scanSpans{start: map[string]time.Time{}, dur: map[string]time.Duration{}}
		cfg.Scan.OnSpan = r.scans.record
	}
	d, err := scand.Open(cfg)
	if err != nil {
		return nil, err
	}
	r.d = d
	var h http.Handler = d.Handler()
	if traced {
		r.timer = &handlerTimer{h: h, submitEnd: map[string]time.Time{}}
		h = r.timer
	}
	r.srv = httptest.NewServer(h)
	r.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
	return r, nil
}

func (r *rig) close() error {
	r.client.CloseIdleConnections()
	r.srv.Close()
	err := r.d.Close()
	if rerr := os.RemoveAll(r.dir); err == nil {
		err = rerr
	}
	return err
}

var errShed = errors.New("shed (429)")

func (r *rig) newJob(p *plugin, due time.Time) *job {
	r.seq++
	return &job{p: p, name: fmt.Sprintf("%s-j%06d", p.slug, r.seq), due: due}
}

// submit posts one job as JSON.
func (r *rig) submit(j *job) error {
	var body bytes.Buffer
	body.Grow(len(j.p.srcJSON) + len(j.name) + 32)
	body.WriteString(`{"name":`)
	name, _ := json.Marshal(j.name) // a string always encodes
	body.Write(name)
	body.WriteString(`,"sources":`)
	body.Write(j.p.srcJSON)
	body.WriteString("}")
	req, err := http.NewRequest(http.MethodPost, r.srv.URL+"/jobs?tenant=bench&name="+url.QueryEscape(j.name), &body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
		var accepted struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &accepted); err != nil || accepted.ID == "" {
			return fmt.Errorf("submit %s: bad response %q", j.name, raw)
		}
		j.id = accepted.ID
		return nil
	case http.StatusTooManyRequests:
		return errShed
	default:
		return fmt.Errorf("submit %s: HTTP %d: %s", j.name, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
}

// poll asks for the job's state once and, when it has finished, fetches
// its result and checks it against the plugin's planted truth and the
// name it was submitted under. done is false while the job is queued or
// running.
func (r *rig) poll(j *job) (done bool, err error) {
	raw, code, err := r.get("/jobs/" + j.id)
	if err != nil {
		return true, err
	}
	var st scand.Job
	if code != http.StatusOK || json.Unmarshal(raw, &st) != nil {
		return true, fmt.Errorf("job %s (%s) status: HTTP %d: %s", j.id, j.name, code, raw)
	}
	switch st.State {
	case scand.JobFinished:
	case scand.JobSubmitted, scand.JobRunning:
		return false, nil
	default:
		return true, fmt.Errorf("job %s (%s) %s: %s", j.id, j.name, st.State, st.Error)
	}
	raw, code, err = r.get("/jobs/" + j.id + "/result")
	if err != nil {
		return true, err
	}
	j.lat = time.Since(j.due)
	if code != http.StatusOK {
		return true, fmt.Errorf("job %s (%s) result: HTTP %d: %s", j.id, j.name, code, raw)
	}
	var rep struct {
		Name       string
		Vulnerable bool
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return true, fmt.Errorf("job %s (%s) result: %v", j.id, j.name, err)
	}
	if rep.Name != j.name {
		return true, fmt.Errorf("job %s: result carries name %q, submitted as %q", j.id, rep.Name, j.name)
	}
	if rep.Vulnerable != j.p.want {
		return true, fmt.Errorf("job %s (%s): verdict vulnerable=%v, want %v", j.id, j.name, rep.Vulnerable, j.p.want)
	}
	j.report = raw
	return true, nil
}

func (r *rig) get(path string) (body []byte, code int, err error) {
	resp, err := r.client.Get(r.srv.URL + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return bytes.TrimSpace(body), resp.StatusCode, err
}

// collect polls every outstanding job until the accepted
// channel is closed and nothing is outstanding. Jobs are polled in
// submit order but each is recorded as soon as its own result arrives,
// so a slow job does not delay the ones behind it.
func (r *rig) collect(ph *phase, accepted <-chan *job, collected *atomic.Int64) (problems []string) {
	var pending []*job
	open := true
	for open || len(pending) > 0 {
		if len(pending) == 0 {
			j, ok := <-accepted
			if !ok {
				break
			}
			pending = append(pending, j)
		}
	drain:
		for open {
			select {
			case j, ok := <-accepted:
				if !ok {
					open = false
					break drain
				}
				pending = append(pending, j)
			default:
				break drain
			}
		}
		kept := pending[:0]
		for _, j := range pending {
			done, err := r.poll(j)
			switch {
			case !done:
				kept = append(kept, j)
				continue
			case err != nil:
				problems = append(problems, err.Error())
			default:
				ph.jobs = append(ph.jobs, j)
				ph.lats = append(ph.lats, millis(j.lat))
			}
			collected.Add(1)
		}
		if len(kept) == len(pending) && len(kept) > 0 {
			time.Sleep(pollInterval)
		}
		pending = kept
	}
	return problems
}

// phase is one open-loop run at one rate.
type phase struct {
	rate    float64
	jobs    []*job // accepted and finished correctly
	lats    []float64
	lateMax time.Duration
	backlog int // jobs submitted but not yet collected when the last was due
	shed    int
	failed  int
}

// grew reports whether the phase ended with more work outstanding than
// the latency limit allows at its rate (Little's law), beyond what the
// scan workers hold.
func (ph *phase) grew() bool {
	return float64(ph.backlog) > ph.rate*latencyLimit.Seconds()+scanWorkers
}

// run submits n jobs, job i due at start + i·interval, while the
// collector polls for them. interval 0 submits all n at once.
func (r *rig) run(o *outcome, n int, interval time.Duration, next func() *plugin) *phase {
	// Each phase starts from a collected heap, so the garbage an earlier
	// phase left behind does not decide when this one collects.
	runtime.GC()
	ph := &phase{}
	if interval > 0 {
		ph.rate = float64(time.Second) / float64(interval)
	}
	accepted := make(chan *job, n) // sized to the number of sends
	var (
		collected atomic.Int64
		wg        sync.WaitGroup
		problems  []string
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		problems = r.collect(ph, accepted, &collected)
	}()
	start := time.Now().Add(time.Millisecond)
	sent := 0
	for i := 0; i < n; i++ {
		j := r.newJob(next(), start.Add(time.Duration(i)*interval))
		if d := time.Until(j.due); d > 0 {
			time.Sleep(d)
		}
		if late := time.Since(j.due); interval > 0 && late > ph.lateMax {
			ph.lateMax = late
		}
		o.attempted++
		switch err := r.submit(j); {
		case errors.Is(err, errShed):
			ph.shed++
			o.fail("%s: %v", j.name, err)
		case err != nil:
			ph.failed++
			o.fail("%v", err)
		default:
			accepted <- j
			sent++
		}
	}
	ph.backlog = sent - int(collected.Load())
	close(accepted)
	wg.Wait()
	for _, p := range problems {
		ph.failed++
		o.fail("%s", p)
	}
	return ph
}

// openLoop runs the generator at rate for d.
func (r *rig) openLoop(o *outcome, rate float64, d time.Duration, next func() *plugin) *phase {
	n := max(1, int(rate*d.Seconds()))
	return r.run(o, n, time.Duration(float64(time.Second)/rate), next)
}

// warm awaits a few jobs one by one.
func (r *rig) warm(o *outcome, next func() *plugin) {
	for i := 0; i < warmJobs; i++ {
		r.run(o, 1, 0, next)
	}
}

// handlerTimer times the daemon's HTTP handler per endpoint.
type handlerTimer struct {
	h         http.Handler
	mu        sync.Mutex
	submit    []float64
	result    []float64
	submitEnd map[string]time.Time // by job name
}

func (t *handlerTimer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	t.h.ServeHTTP(w, req)
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case req.Method == http.MethodPost:
		t.submit = append(t.submit, millis(end.Sub(start)))
		t.submitEnd[req.URL.Query().Get("name")] = end
	case strings.HasSuffix(req.URL.Path, "/result"):
		t.result = append(t.result, millis(end.Sub(start)))
	}
}

// scanSpans keeps each job's "scan" span, delivered by the scanner's
// OnSpan hook.
type scanSpans struct {
	mu    sync.Mutex
	start map[string]time.Time
	dur   map[string]time.Duration
}

func (s *scanSpans) record(sp obs.Span) {
	if sp.Name != "scan" {
		return
	}
	s.mu.Lock()
	s.start[sp.Attr("app")] = sp.Start
	s.dur[sp.Attr("app")] = sp.Dur()
	s.mu.Unlock()
}

// measureDaemon submits the apps to an untraced daemon at the heavy
// rate, then to a traced one (handler and scan spans) at the light and
// heavy rates, then replays every finished job's journal records and
// report through scanjournal.Writer.Append and Cache.Put/Get. It adds
// the scand, scanjournal and loadgen metrics to m.
func measureDaemon(cfg config, o *outcome, apps []scanApp, m layerValues) error {
	pool, err := daemonPlugins(apps)
	if err != nil {
		return err
	}
	next := cycle(pool, rand.New(rand.NewSource(cfg.seed)))
	plain, err := openRig(filepath.Join(cfg.state, "daemon-plain"), false)
	if err != nil {
		return err
	}
	plain.warm(o, next)
	window := cfg.dur * 30 / 100
	base := plain.openLoop(o, heavyRate, window, next)
	if err := plain.close(); err != nil {
		return err
	}

	r, err := openRig(filepath.Join(cfg.state, "daemon-traced"), true)
	if err != nil {
		return err
	}
	defer r.close()
	r.warm(o, next)
	light := r.openLoop(o, lightRate, window, next)
	heavy := r.openLoop(o, heavyRate, window, next)

	var queueWait, run []float64
	r.timer.mu.Lock()
	r.scans.mu.Lock()
	for _, ph := range []*phase{light, heavy} {
		for _, j := range ph.jobs {
			if st, ok := r.scans.start[j.name]; ok {
				queueWait = append(queueWait, millis(st.Sub(r.timer.submitEnd[j.name])))
				run = append(run, millis(r.scans.dur[j.name]))
			}
		}
	}
	submit, result := r.timer.submit, r.timer.result
	r.scans.mu.Unlock()
	r.timer.mu.Unlock()

	appends, puts, gets, err := replayJournal(filepath.Join(cfg.state, "journal-replay"), append(light.jobs, heavy.jobs...), r.d.Fingerprint())
	if err != nil {
		return err
	}

	shed, failed, grew := 0, 0, 0
	lateMax := time.Duration(0)
	for _, ph := range []*phase{base, light, heavy} {
		shed += ph.shed
		failed += ph.failed - ph.shed
		lateMax = max(lateMax, ph.lateMax)
		if ph.grew() {
			grew++
		}
		o.note("open loop %g jobs/s: %d results, p50 %.2f ms, p95 %.2f ms, generator late ≤ %.2f ms, backlog %d (grew: %v)",
			ph.rate, len(ph.lats), percentile(ph.lats, 50), percentile(ph.lats, 95), millis(ph.lateMax), ph.backlog, ph.grew())
	}
	o.note("tracing overhead at %g jobs/s: traced p50 %.2f ms - untraced p50 %.2f ms", heavyRate, percentile(heavy.lats, 50), percentile(base.lats, 50))
	o.note("journal replay: %d appends, %d cache puts, %d cache gets", len(appends), len(puts), len(gets))

	m["scanjournal.appends"] = float64(len(appends))
	m["scanjournal.append_ms_p50"] = percentile(appends, 50)
	m["scanjournal.append_ms_p95"] = percentile(appends, 95)
	m["scanjournal.cache_put_ms_p50"] = percentile(puts, 50)
	m["scanjournal.cache_get_ms_p50"] = percentile(gets, 50)
	m["scand.submit_ms_p50"] = percentile(submit, 50)
	m["scand.queue_wait_ms_p50"] = percentile(queueWait, 50)
	m["scand.queue_wait_ms_p95"] = percentile(queueWait, 95)
	m["scand.run_ms_p50"] = percentile(run, 50)
	m["scand.result_ms_p50"] = percentile(result, 50)
	m["scand.shed"] = float64(shed)
	m["scand.jobs_failed"] = float64(failed)
	m["scand.light_lat_ms_p50"] = percentile(light.lats, 50)
	m["scand.light_lat_ms_p95"] = percentile(light.lats, 95)
	m["scand.heavy_lat_ms_p50"] = percentile(base.lats, 50)
	m["scand.heavy_lat_ms_p95"] = percentile(base.lats, 95)
	m["scand.trace_overhead_ms"] = percentile(heavy.lats, 50) - percentile(base.lats, 50)
	m["loadgen.late_ms_max"] = millis(lateMax)
	m["loadgen.backlog_grew"] = float64(grew)
	return nil
}

// replayJournal writes each job's lifecycle records (submit, start,
// finish with its report) through a fresh scanjournal.Writer and its
// report through a fresh Cache, timing every call (ms).
func replayJournal(dir string, jobs []*job, fingerprint string) (appends, puts, gets []float64, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	w, err := scanjournal.OpenWriter(filepath.Join(dir, "jobs.journal"), nil)
	if err != nil {
		return nil, nil, nil, err
	}
	defer w.Close()
	cache, err := scanjournal.OpenCache(filepath.Join(dir, "cache"), nil)
	if err != nil {
		return nil, nil, nil, err
	}
	timed := func(out *[]float64, f func() error) error {
		t0 := time.Now()
		err := f()
		*out = append(*out, millis(time.Since(t0)))
		return err
	}
	for _, j := range jobs {
		key := scanjournal.CacheKey(j.p.sources, fingerprint+"\x00name\x00"+j.name)
		for _, rec := range []scanjournal.Record{
			{Type: scanjournal.TypeJobSubmit, Job: j.id, Tenant: "bench", Name: j.name, Key: key, At: time.Now()},
			{Type: scanjournal.TypeJobStart, Job: j.id, Tenant: "bench", Name: j.name, Key: key, At: time.Now()},
			{Type: scanjournal.TypeJobFinish, Job: j.id, Tenant: "bench", Name: j.name, Key: key, Report: j.report, At: time.Now()},
		} {
			if err := timed(&appends, func() error { return w.Append(rec) }); err != nil {
				return nil, nil, nil, err
			}
		}
		if err := timed(&puts, func() error { return cache.Put(key, j.report) }); err != nil {
			return nil, nil, nil, err
		}
		var hit bool
		timed(&gets, func() error { _, hit = cache.Get(key); return nil })
		if !hit {
			return nil, nil, nil, fmt.Errorf("cache replay: %s missing after Put", j.name)
		}
	}
	return appends, puts, gets, nil
}
