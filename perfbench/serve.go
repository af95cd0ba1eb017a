package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"shapesol/internal/job"
)

// Serving load. Two closed-loop clients (one per core) each send a
// request and wait for its result frame before sending the next, the way
// `shapesolctl submit` followed by `watch` behaves. The daemons run with
// default flags; only the listen address, the data directory and, for
// workers, the coordinator and node name are set.
const (
	clients      = 2
	setupsPerRun = 5
	// Sampled checks and traces come from the most recent requests: the
	// daemons retain only their last 4096 job records by default.
	recentWindow  = 1500
	resultSamples = 16
	traceSamples  = 200
)

func runServeStandalone(cfg config, traced bool) (*outcome, error) {
	return runServe(cfg, traced, false)
}

func runServeCluster(cfg config, traced bool) (*outcome, error) {
	return runServe(cfg, traced, true)
}

// ---------------------------------------------------------------------
// Daemon processes.

// daemon is one shapesold process.
type daemon struct {
	role, name, url, dataDir string
	cmd                      *exec.Cmd
	done                     chan struct{} // closed once the process has been waited for
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon launches shapesold in role with its data directory (for
// job-running roles) under dir.
func startDaemon(cfg config, dir, role, name string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{role: role, name: name, url: "http://" + addr, done: make(chan struct{})}
	argv := append([]string{"-role", role, "-addr", addr}, args...)
	if role != "coordinator" {
		d.dataDir = filepath.Join(dir, name)
		argv = append(argv, "-data-dir", d.dataDir)
	}
	logFile, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	d.cmd = exec.Command(filepath.Join(cfg.bin, "shapesold"), argv...)
	d.cmd.Stdout, d.cmd.Stderr = logFile, logFile
	if err := d.cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start shapesold %s: %w", name, err)
	}
	go func() {
		d.cmd.Wait() //nolint:errcheck // a killed daemon exits non-zero by design
		logFile.Close()
		close(d.done)
	}()
	return d, nil
}

// stop drains the daemon with SIGTERM and kills it if it takes too long.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // it may have exited already
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.kill()
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // it may have exited already
	<-d.done
}

// waitFor polls ok until it reports true, the daemon exits, or the
// deadline passes.
func (d *daemon) waitFor(what string, ok func() bool) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("shapesold %s exited while waiting for %s (see %s.log)", d.name, what, d.name)
		default:
		}
		if ok() {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("shapesold %s: timed out waiting for %s", d.name, what)
}

// fleet is one workload's set of daemons.
type fleet struct {
	front   *daemon   // the daemon clients talk to
	coord   *daemon   // the coordinator (cluster only)
	runners []*daemon // the daemons that run jobs
	all     []*daemon
}

func (f *fleet) stop() {
	var wg sync.WaitGroup
	for _, d := range f.all {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.stop()
		}()
	}
	wg.Wait()
}

// startFleet launches the workload's daemons and waits until they serve:
// healthy, and in a cluster both workers alive on the coordinator's ring.
func startFleet(cfg config, dir string, cluster bool, hc *http.Client) (*fleet, error) {
	f := &fleet{}
	fail := func(err error) (*fleet, error) {
		f.stop()
		return nil, err
	}
	healthy := func(d *daemon) func() bool {
		return func() bool {
			resp, err := hc.Get(d.url + "/healthz")
			if err != nil {
				return false
			}
			drain(resp)
			return resp.StatusCode == http.StatusOK
		}
	}
	if !cluster {
		d, err := startDaemon(cfg, dir, "standalone", "standalone")
		if err != nil {
			return fail(err)
		}
		f.front, f.runners, f.all = d, []*daemon{d}, []*daemon{d}
		if err := d.waitFor("health", healthy(d)); err != nil {
			return fail(err)
		}
		return f, nil
	}
	coord, err := startDaemon(cfg, dir, "coordinator", "coordinator")
	if err != nil {
		return fail(err)
	}
	f.front, f.coord, f.all = coord, coord, []*daemon{coord}
	if err := coord.waitFor("health", healthy(coord)); err != nil {
		return fail(err)
	}
	for _, name := range []string{"w1", "w2"} {
		w, err := startDaemon(cfg, dir, "worker", name, "-coordinator", coord.url, "-node-name", name)
		if err != nil {
			return fail(err)
		}
		f.runners = append(f.runners, w)
		f.all = append(f.all, w)
	}
	for _, w := range f.runners {
		if err := w.waitFor("health", healthy(w)); err != nil {
			return fail(err)
		}
	}
	err = coord.waitFor("two workers on the ring", func() bool {
		nodes, err := clusterNodes(hc, coord.url)
		alive := 0
		for _, n := range nodes {
			if n.Alive {
				alive++
			}
		}
		return err == nil && alive == 2
	})
	if err != nil {
		return fail(err)
	}
	return f, nil
}

type nodeStatus struct {
	Name  string `json:"name"`
	Alive bool   `json:"alive"`
	Jobs  []struct {
		ID       string `json:"id"`
		Snapshot bool   `json:"snapshot"`
	} `json:"jobs"`
}

func clusterNodes(hc *http.Client, url string) ([]nodeStatus, error) {
	var nodes []nodeStatus
	return nodes, getJSON(hc, url+"/v1/cluster/nodes", &nodes)
}

// ---------------------------------------------------------------------
// HTTP client.

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// drain reads a response body to EOF and closes it, so the connection is
// reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // only for connection reuse
	resp.Body.Close()
}

func getBody(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

func getJSON(hc *http.Client, url string, v any) error {
	body, err := getBody(hc, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// exchange is one request's round trip: the POST and the /events wait.
type exchange struct {
	start, end time.Time
	id         string
	cached     bool
	result     json.RawMessage
	err        error
}

func (x exchange) latency() time.Duration { return x.end.Sub(x.start) }

// submit posts one job and waits on /events for its result frame,
// recording the two HTTP calls as spans under spanID.
func submit(hc *http.Client, base string, body []byte, spanID string, rec *recorder) (x exchange) {
	x.start = time.Now()
	defer func() {
		x.end = time.Now()
		rec.add(span{ID: spanID, Name: "request", Layer: "client", Start: x.start, End: x.end})
	}()
	var status struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	rec.timed(spanID, "request", "http.POST /v1/jobs", "server", 1, func() {
		resp, err := hc.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			x.err = err
			return
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		switch {
		case err != nil:
			x.err = err
		case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
			x.err = fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(raw))
		default:
			x.err = json.Unmarshal(raw, &status)
		}
	})
	if x.err != nil {
		return x
	}
	x.id, x.cached = status.ID, status.Cached
	rec.timed(spanID, "request", "http.GET /v1/jobs/{id}/events", "server", 1, func() {
		x.err = waitResult(hc, base+"/v1/jobs/"+x.id+"/events", &x)
	})
	return x
}

// waitResult reads an NDJSON event stream up to its result frame.
func waitResult(hc *http.Client, url string, x *exchange) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	r := bufio.NewReader(resp.Body)
	for {
		line, err := r.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var f struct {
				Type   string          `json:"type"`
				State  string          `json:"state"`
				Cached bool            `json:"cached"`
				Error  string          `json:"error"`
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(line, &f); err != nil {
				return fmt.Errorf("events: bad frame: %w", err)
			}
			if f.Type == "result" {
				if f.State != "done" || len(f.Result) == 0 {
					return fmt.Errorf("job %s settled %s without a result: %s", x.id, f.State, f.Error)
				}
				x.cached = x.cached || f.Cached
				x.result = f.Result
				return nil
			}
		}
		if err != nil {
			return fmt.Errorf("events: stream ended before the result frame: %w", err)
		}
	}
}

// canonical renders a Result with wall time zeroed and keys sorted, so
// results served along different paths compare by content.
func canonical(raw json.RawMessage) (string, map[string]any, error) {
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return "", nil, err
	}
	m["wall_ns"] = 0
	b, err := json.Marshal(m)
	return string(b), m, err
}

// ---------------------------------------------------------------------
// The workload.

// served is one completed request of the timed phase.
type served struct {
	i   int // index in the request stream
	hot int
	j   job.Job
	x   exchange
}

// setupServing starts a fleet and pre-submits the hot set; it returns the
// fleet, the first-served canonical Result of every hot key, and the set-up
// time.
func setupServing(cfg config, dir string, cluster bool, st *stream, hc *http.Client) (*fleet, []string, time.Duration, error) {
	t0 := time.Now()
	f, err := startFleet(cfg, dir, cluster, hc)
	if err != nil {
		return nil, nil, 0, err
	}
	first := make([]string, len(st.hot))
	for k, j := range st.hot {
		body, err := json.Marshal(j)
		if err != nil {
			f.stop()
			return nil, nil, 0, err
		}
		x := submit(hc, f.front.url, body, "", nil)
		if x.err == nil {
			var m map[string]any
			first[k], m, x.err = canonical(x.result)
			if x.err == nil {
				x.err = checkGuarantee(servingGuarantee(j), m["halted"] == true, payloadOf(m))
			}
		}
		if x.err != nil {
			f.stop()
			return nil, nil, 0, fmt.Errorf("hot set job %d: %w", k, x.err)
		}
	}
	return f, first, time.Since(t0), nil
}

func payloadOf(m map[string]any) map[string]any {
	p, _ := m["payload"].(map[string]any)
	return p
}

// readings are the process and /metrics readings at one instant.
type readings struct {
	cpu     map[*daemon]time.Duration
	scrape  map[*daemon]exposition
	journal map[*daemon]int64
	steal   int64
}

func read(f *fleet, hc *http.Client, traced bool) (readings, error) {
	r := readings{cpu: map[*daemon]time.Duration{}, scrape: map[*daemon]exposition{},
		journal: map[*daemon]int64{}, steal: stealTicks()}
	for _, d := range f.all {
		c, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return r, err
		}
		r.cpu[d] = c
		if !traced {
			continue
		}
		body, err := getBody(hc, d.url+"/metrics")
		if err != nil {
			return r, err
		}
		if r.scrape[d], err = parseExposition(bytes.NewReader(body)); err != nil {
			return r, err
		}
		if d.dataDir != "" {
			fi, err := os.Stat(filepath.Join(d.dataDir, "journal.ndjson"))
			if err != nil {
				return r, err
			}
			r.journal[d] = fi.Size()
		}
	}
	return r, nil
}

// runServe measures one serving workload.
func runServe(cfg config, traced bool, cluster bool) (*outcome, error) {
	hc := newHTTPClient()
	st := newStream(cfg.seed)
	phase := "untraced"
	if traced {
		phase = "traced"
	}
	var (
		f       *fleet
		first   []string
		setups  []float64
		stopped bool
	)
	for i := 0; i < setupsPerRun; i++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("%s-setup%d", phase, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if f != nil {
			f.stop()
		}
		var took time.Duration
		var err error
		if f, first, took, err = setupServing(cfg, dir, cluster, st, hc); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer func() {
		if !stopped {
			f.stop()
		}
	}()
	var rec *recorder
	if traced {
		rec = &recorder{}
	}

	before, err := read(f, hc, traced)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	var next atomic.Int64
	perClient := make([][]served, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				req := st.at(i)
				id := fmt.Sprintf("q%d", i)
				if traced {
					keyCalls(req.job, id, rec)
				}
				body, err := json.Marshal(req.job)
				if err != nil {
					panic(err) // a job the benchmark built itself always marshals
				}
				x := submit(hc, f.front.url, body, id, rec)
				perClient[c] = append(perClient[c], served{i: i, hot: req.hot, j: req.job, x: x})
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	after, err := read(f, hc, traced)
	if err != nil {
		return nil, err
	}

	var all []served
	for _, s := range perClient {
		all = append(all, s...)
	}
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	var fresh, hits, lats []float64
	hotTimes := make([][]float64, len(st.hot))
	bad := map[int]error{}
	for _, s := range all {
		o.attempted++
		err := s.x.err
		if err == nil {
			err = checkServed(s, first)
		}
		if err != nil {
			bad[s.i] = err
			continue
		}
		lat := ms(s.x.latency())
		lats = append(lats, lat)
		if s.x.cached {
			hits = append(hits, lat)
		} else {
			fresh = append(fresh, lat)
		}
		if s.hot >= 0 {
			hotTimes[s.hot] = append(hotTimes[s.hot], lat)
		}
	}
	// Re-run a sample of recent fresh jobs in this process; the daemon's
	// /result bytes must match.
	for _, s := range sample(all, resultSamples, func(s served) bool { return s.hot < 0 && s.x.err == nil }) {
		if err := rerunCheck(hc, f.front.url, s, rec); err != nil {
			bad[s.i] = err
		}
	}
	for i, err := range bad {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf("request %d: %v", i, err))
	}
	if len(fresh) == 0 || len(hits) == 0 {
		return nil, fmt.Errorf("no latency samples (fresh %d, cached %d)", len(fresh), len(hits))
	}
	var rss float64
	for _, d := range f.all {
		r, err := peakRSS(d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		rss += r
	}
	// Every metric but set-up and memory covers the whole timed phase: on a
	// shared host per-second rates swing by half, and any one window of
	// them is less steady between runs than the whole phase.
	// best_jobs_per_s is the serving analogue of the batches' minimum
	// estimator: the rate the closed loop sustains when every request takes
	// the median round trip (Little's law with the median for the mean).
	completed := float64(len(lats))
	var cpu time.Duration
	for _, d := range f.all {
		cpu += after.cpu[d] - before.cpu[d]
	}
	o.e2e["setup_s"] = quantile(setups, 0.5)
	o.e2e["best_jobs_per_s"] = clients * 1000 / quantile(lats, 0.5)
	o.e2e["jobs_per_s"] = completed / wall.Seconds()
	o.e2e["latency_p50_ms"] = quantile(fresh, 0.5)
	o.e2e["latency_p90_ms"] = quantile(fresh, 0.9)
	o.e2e["hit_latency_p50_ms"] = quantile(hits, 0.5)
	o.e2e["cpu_ms_per_job"] = ms(cpu) / completed
	o.e2e["peak_rss_mb"] = rss
	o.host = hostIndicator{slowdown: slowdown(hotTimes), stealTicks: after.steal - before.steal}
	o.notes = append(o.notes,
		fmt.Sprintf("%d requests in %.2f s by %d closed-loop clients; setups %.3f s",
			o.attempted, wall.Seconds(), clients, setups),
		fmt.Sprintf("fresh: n=%d p50 %.3f p90 %.3f p99 %.3f max %.3f ms", len(fresh),
			quantile(fresh, 0.5), quantile(fresh, 0.9), quantile(fresh, 0.99), quantile(fresh, 1)),
		fmt.Sprintf("cached: n=%d p50 %.3f p90 %.3f p99 %.3f max %.3f ms", len(hits),
			quantile(hits, 0.5), quantile(hits, 0.9), quantile(hits, 0.99), quantile(hits, 1)))
	if !traced {
		return o, nil
	}
	if err := serveLayers(o, f, hc, all, before, after, completed, rec); err != nil {
		return nil, err
	}
	if cluster {
		detect, resume, err := failoverProbe(cfg, f, hc)
		if err != nil {
			o.failed++
			o.problems = append(o.problems, "failover probe: "+err.Error())
		}
		o.attempted++
		o.layers["cluster.failover_detect_s"] = detect
		o.layers["cluster.failover_resume_ms"] = resume
	}
	f.stop()
	stopped = true
	return o, nil
}

// keyCalls times the job layer's admission calls on a request's job, as
// the daemon makes them on every submission.
func keyCalls(j job.Job, id string, rec *recorder) {
	var nj job.Job
	rec.timed(id, "request", "job.Normalize", "job", 1, func() { nj, _, _ = job.Normalize(j) })
	rec.timed(id, "request", "job.CacheKey", "job", 1, func() { _ = nj.CacheKey() })
}

// checkServed verifies one response: a hot key's Result must carry the
// bytes first served for it, and a fresh job's must meet its guarantee.
func checkServed(s served, first []string) error {
	c, m, err := canonical(s.x.result)
	if err != nil {
		return err
	}
	if s.hot >= 0 {
		if c != first[s.hot] {
			return fmt.Errorf("hot key %d (cached=%v) served bytes that differ from its first response", s.hot, s.x.cached)
		}
		return nil
	}
	return checkGuarantee(servingGuarantee(s.j), m["halted"] == true, payloadOf(m))
}

// sample picks up to n evenly spaced requests matching keep from the
// most recent window of the stream.
func sample(all []served, n int, keep func(served) bool) []served {
	maxI := 0
	for _, s := range all {
		maxI = max(maxI, s.i)
	}
	var pool []served
	for _, s := range all {
		if s.i > maxI-recentWindow && keep(s) {
			pool = append(pool, s)
		}
	}
	if len(pool) <= n {
		return pool
	}
	out := make([]served, 0, n)
	for k := 0; k < n; k++ {
		out = append(out, pool[k*len(pool)/n])
	}
	return out
}

var wallRE = regexp.MustCompile(`"wall_ns": [0-9]+`)

// rerunCheck runs a served fresh job in this process and compares its
// Result with the daemon's /result bytes, wall time zeroed on both.
func rerunCheck(hc *http.Client, base string, s served, rec *recorder) error {
	got, err := getBody(hc, base+"/v1/jobs/"+s.x.id+"/result")
	if err != nil {
		return err
	}
	res, err := job.Run(context.Background(), s.j)
	if err != nil {
		return err
	}
	res.WallTime = 0
	var want []byte
	rec.timed(fmt.Sprintf("rerun%d", s.i), "", "result.encode", "job", 0, func() {
		want, err = json.MarshalIndent(res, "", "  ")
	})
	if err != nil {
		return err
	}
	if !bytes.Equal(wallRE.ReplaceAll(got, []byte(`"wall_ns": 0`)), append(want, '\n')) {
		return fmt.Errorf("daemon /result for %s differs from a local job.Run", s.x.id)
	}
	return nil
}

// serveLayers derives the per-layer metrics of a traced serving run from
// the client spans, the daemons' /metrics deltas and a sample of job
// traces.
func serveLayers(o *outcome, f *fleet, hc *http.Client, all []served, before, after readings, completed float64, rec *recorder) error {
	l := o.layers
	sumOver := func(ds []*daemon, name string, labels ...string) (float64, error) {
		total := 0.0
		for _, d := range ds {
			v, err := delta(before.scrape[d], after.scrape[d], name, labels...)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", d.name, err)
			}
			total += v
		}
		return total, nil
	}
	var firstErr error
	get := func(ds []*daemon, name string, labels ...string) float64 {
		v, err := sumOver(ds, name, labels...)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	const hist = "shapesol_http_request_duration_seconds"
	const post = `route="POST /v1/jobs"`
	front := []*daemon{f.front}
	spans := rec.all()
	l["server.submit_rtt_ms"] = ms(spanMean(spans, "http.POST /v1/jobs"))
	l["server.wait_ms"] = ms(spanMean(spans, "http.GET /v1/jobs/{id}/events"))
	l["server.submit_handler_ms"] = 1000 * ratio(get(f.runners, hist+"_sum", post), get(f.runners, hist+"_count", post))
	l["server.requests_per_job"] = get(front, hist+"_count") / completed
	l["server.fsyncs_per_job"] = get(f.runners, "shapesol_journal_fsync_duration_seconds_count") / completed
	l["server.fsync_ms"] = 1000 * ratio(get(f.runners, "shapesol_journal_fsync_duration_seconds_sum"),
		get(f.runners, "shapesol_journal_fsync_duration_seconds_count"))
	hitsRun := get(f.runners, "shapesol_cache_hits_total")
	l["server.cache_hit_ratio"] = ratio(hitsRun, hitsRun+get(f.runners, "shapesol_cache_misses_total"))
	var journal int64
	for _, d := range f.runners {
		journal += after.journal[d] - before.journal[d]
	}
	l["server.journal_bytes_per_job"] = float64(journal) / completed
	cpuOf := func(ds ...*daemon) float64 {
		var c time.Duration
		for _, d := range ds {
			c += after.cpu[d] - before.cpu[d]
		}
		return ms(c) / completed
	}
	if f.coord != nil {
		coord := []*daemon{f.coord}
		l["cluster.submit_handler_ms"] = 1000 * ratio(get(coord, hist+"_sum", post), get(coord, hist+"_count", post))
		l["cluster.hop_ms"] = l["cluster.submit_handler_ms"] - l["server.submit_handler_ms"]
		l["cluster.worker_requests_per_job"] = get(f.runners, hist+"_count") / completed
		hitsC := get(coord, "shapesol_cache_hits_total")
		l["cluster.cache_hit_ratio"] = ratio(hitsC, hitsC+get(coord, "shapesol_cache_misses_total"))
		l["cluster.mirror_pulls_per_job"] = get(coord, "shapesol_cluster_mirror_pulls_total") / completed
		l["proc.cpu_ms_per_job.coordinator"] = cpuOf(f.coord)
		l["proc.cpu_ms_per_job.worker"] = cpuOf(f.runners...)
	} else {
		l["proc.cpu_ms_per_job.standalone"] = cpuOf(f.front)
	}
	if firstErr != nil {
		return firstErr
	}
	l["job.normalize_us"] = float64(spanMean(spans, "job.Normalize")) / 1e3
	l["job.cachekey_us"] = float64(spanMean(spans, "job.CacheKey")) / 1e3
	l["job.result_encode_us"] = float64(spanMean(spans, "result.encode")) / 1e3

	// Daemon-side phases of a sample of recent requests become child spans;
	// the layer shares are taken over those requests alone.
	picked := sample(all, traceSamples, func(s served) bool { return s.x.err == nil })
	daemonSpans, queue, err := jobPhases(f, hc, picked)
	if err != nil {
		return err
	}
	l["runner.queue_wait_ms"] = mean(queue)
	keep := map[string]bool{}
	for _, s := range picked {
		keep[fmt.Sprintf("q%d", s.i)] = true
	}
	o.spans = daemonSpans
	for _, s := range spans {
		if keep[s.ID] {
			o.spans = append(o.spans, s)
		}
	}
	return nil
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// jobPhases reads the job traces of the sampled requests and turns their
// lifecycle events into spans: the coordinator's routing, the pool queue
// wait and the engine run. It returns the spans and the queue waits of
// the fresh jobs in milliseconds.
func jobPhases(f *fleet, hc *http.Client, picked []served) ([]span, []float64, error) {
	var out []span
	var queue []float64
	// In a cluster, a job's worker-side id is found by its identity in the
	// worker's job list (fresh jobs have unique seeds).
	workerIDs := map[string]map[string]string{}
	if f.coord != nil {
		for _, w := range f.runners {
			var list []struct {
				ID       string `json:"id"`
				Protocol string `json:"protocol"`
				Engine   string `json:"engine"`
				Seed     int64  `json:"seed"`
			}
			if err := getJSON(hc, w.url+"/v1/jobs", &list); err != nil {
				return nil, nil, err
			}
			ids := map[string]string{}
			for _, e := range list {
				ids[fmt.Sprintf("%s/%s/%d", e.Protocol, e.Engine, e.Seed)] = e.ID
			}
			workerIDs[w.name] = ids
		}
	}
	for _, s := range picked {
		id := fmt.Sprintf("q%d", s.i)
		body, err := getBody(hc, f.front.url+"/v1/jobs/"+s.x.id+"/trace")
		if err != nil {
			return nil, nil, err
		}
		required := []string{"submitted", "settled"}
		if f.coord == nil && !s.x.cached {
			required = append(required, "queued", "running")
		}
		ev, err := traceEvents(body, required...)
		if err != nil {
			return nil, nil, err
		}
		workerEv := ev
		depth := 2
		if f.coord != nil {
			routed, ok := ev["routed"]
			if !ok {
				if !s.x.cached {
					return nil, nil, fmt.Errorf("trace of %s: fresh job without a %q event", s.x.id, "routed")
				}
				continue // answered from the coordinator's cache
			}
			out = append(out, span{ID: id, Name: "cluster.route", Layer: "cluster", Parent: "http.POST /v1/jobs",
				Depth: 2, Start: ev["submitted"], End: routed})
			// A hot key that missed both caches cannot be told apart by
			// identity from its other submissions in the worker's job list,
			// some of which were cache hits with no pool phases.
			if s.x.cached || s.hot >= 0 {
				continue
			}
			var detail struct {
				Events []struct {
					Event, Detail string
				} `json:"events"`
			}
			if err := json.Unmarshal(body, &detail); err != nil {
				return nil, nil, err
			}
			owner := ""
			for _, e := range detail.Events {
				if e.Event == "routed" {
					owner = e.Detail
				}
			}
			wid, ok := workerIDs[owner][fmt.Sprintf("%s/%s/%d", s.j.Protocol, s.j.Engine, s.j.Seed)]
			if !ok {
				return nil, nil, fmt.Errorf("job %s: not in worker %q's job list", s.x.id, owner)
			}
			var w *daemon
			for _, r := range f.runners {
				if r.name == owner {
					w = r
				}
			}
			wbody, err := getBody(hc, w.url+"/v1/jobs/"+wid+"/trace")
			if err != nil {
				return nil, nil, err
			}
			if workerEv, err = traceEvents(wbody, "submitted", "queued", "running", "settled"); err != nil {
				return nil, nil, err
			}
			depth = 3
		}
		if s.x.cached {
			continue
		}
		// The daemon traces "queued" after the admission's journal fsync, by
		// which time an idle pool worker may already be running the job:
		// such a job waited for no worker, and its wait reads 0.
		running, settled := workerEv["running"], workerEv["settled"]
		queued := minTime(workerEv["queued"], running)
		queue = append(queue, ms(running.Sub(queued)))
		out = append(out,
			span{ID: id, Name: "runner.queue", Layer: "runner", Depth: depth, Start: queued, End: running},
			span{ID: id, Name: "engine.run", Layer: string(s.j.Engine), Depth: depth, Start: running, End: settled})
	}
	if len(queue) == 0 {
		return nil, nil, errors.New("no fresh job among the traced sample")
	}
	return out, queue, nil
}

// failoverProbe kills -9 the worker that owns a long urn job once the
// coordinator holds a mirrored checkpoint of it, and reads the failover
// timing from the coordinator trace. The failed-over Result must be
// byte-identical to an uninterrupted run of the same job in this process.
func failoverProbe(cfg config, f *fleet, hc *http.Client) (detectS, resumeMS float64, err error) {
	j := failoverJob(cfg.seed)
	body, err := json.Marshal(j)
	if err != nil {
		return 0, 0, err
	}
	resp, err := hc.Post(f.coord.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	var st struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	drain(resp)
	if err != nil {
		return 0, 0, err
	}
	var owner *daemon
	err = f.coord.waitFor("a mirrored checkpoint of the failover job", func() bool {
		nodes, err := clusterNodes(hc, f.coord.url)
		if err != nil {
			return false
		}
		for _, n := range nodes {
			for _, nj := range n.Jobs {
				if nj.ID == st.ID && nj.Snapshot {
					for _, w := range f.runners {
						if w.name == n.Name {
							owner = w
						}
					}
				}
			}
		}
		return owner != nil
	})
	if err != nil {
		return 0, 0, err
	}
	owner.kill()
	killed := time.Now()
	var status struct {
		State   string `json:"state"`
		Resumed bool   `json:"resumed"`
	}
	err = f.coord.waitFor("the failed-over job to settle", func() bool {
		return getJSON(hc, f.coord.url+"/v1/jobs/"+st.ID, &status) == nil && status.State == "done"
	})
	if err != nil {
		return 0, 0, err
	}
	if !status.Resumed {
		return 0, 0, fmt.Errorf("failed-over job %s did not resume from its mirrored checkpoint", st.ID)
	}
	tbody, err := getBody(hc, f.coord.url+"/v1/jobs/"+st.ID+"/trace")
	if err != nil {
		return 0, 0, err
	}
	ev, err := traceEvents(tbody, "routed", "failover", "settled")
	if err != nil {
		return 0, 0, err
	}
	got, err := getBody(hc, f.coord.url+"/v1/jobs/"+st.ID+"/result")
	if err != nil {
		return 0, 0, err
	}
	detectS = ev["failover"].Sub(killed).Seconds()
	resumeMS = ms(ev["routed#last"].Sub(ev["failover"]))
	fmt.Printf("failover probe: owner %s killed; detected after %.3f s, re-routed %.3f ms later\n", owner.name, detectS, resumeMS)
	res, err := job.Run(context.Background(), j)
	if err != nil {
		return detectS, resumeMS, err
	}
	res.WallTime = 0
	want, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return detectS, resumeMS, err
	}
	if !bytes.Equal(wallRE.ReplaceAll(got, []byte(`"wall_ns": 0`)), append(want, '\n')) {
		return detectS, resumeMS, fmt.Errorf("failed-over Result differs from the uninterrupted run")
	}
	return detectS, resumeMS, nil
}
