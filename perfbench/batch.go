package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"shapesol/internal/job"
	"shapesol/internal/obs"
	"shapesol/internal/runner"
	"shapesol/internal/snap"
)

// Batch timing. Every job runs once per round and rounds are interleaved,
// so a job's repeats fall in different phases of the host's noise; the
// fastest repeat estimates the job's undisturbed time (Chen & Revels,
// "Robust benchmarking in noisy environments", 2016). Rounds continue
// until the timed phase ends, and at least minRounds always run.
const (
	minRounds = 3
	maxRounds = 1000
	setupReps = 21
)

func runCountingBatch(cfg config, traced bool) (*outcome, error) {
	return runBatch(cfg, traced, countingJobs)
}

func runShapesBatch(cfg config, traced bool) (*outcome, error) {
	return runBatch(cfg, traced, shapesJobs)
}

// prepared is a batch job resolved against the registry.
type prepared struct {
	benchJob
	spec *job.Spec
}

// prepare is the batch set-up: generate the seeded list and normalize
// every job.
func prepare(seed int64, list func(int64) []benchJob) ([]prepared, error) {
	var out []prepared
	for _, bj := range list(seed) {
		nj, spec, err := job.Normalize(bj.job)
		if err != nil {
			return nil, err
		}
		bj.job = nj
		out = append(out, prepared{benchJob: bj, spec: spec})
	}
	return out, nil
}

// engineCounts are one repeat's engine counters.
type engineCounts struct {
	steps, effective, rebuilds, flushes, faults, discovered int64
}

func countsOf(m *obs.EngineMetrics) engineCounts {
	return engineCounts{
		steps: m.Steps.Value(), effective: m.Effective.Value(), rebuilds: m.AliasRebuilds.Value(),
		flushes: m.BlockFlushes.Value(), faults: m.FaultEvents.Value(), discovered: m.Discovered.Value(),
	}
}

// repeatOut is one executed repeat of one job.
type repeatOut struct {
	ran     bool
	total   time.Duration // the whole repeat
	cpu     time.Duration // CPU time of the thread that ran it
	hitPath time.Duration // Normalize + CacheKey + Result encode: what a cache hit costs
	// body is the Result, wall time zeroed, as MarshalIndent renders it.
	// Only a job's first repeat keeps it; the others keep its digest, so
	// the process's memory does not grow with the number of repeats.
	body    []byte
	digest  [sha256.Size]byte
	err     error
	counts  engineCounts
	snapLen int
}

// hitPathReps is how often a repeat re-times its few-microsecond cache-hit
// path after the repeat itself, keeping the fastest; one sample of so
// short a call is mostly noise.
const hitPathReps = 8

// hitPath times Normalize + CacheKey + Result encode on j and res.
func hitPath(j job.Job, res job.Result) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < hitPathReps; i++ {
		t0 := time.Now()
		nj, _, err := job.Normalize(j)
		_ = nj.CacheKey()
		_, err2 := json.MarshalIndent(res, "", "  ")
		if err != nil || err2 != nil {
			return 0
		}
		best = min(best, time.Since(t0))
	}
	return best
}

// threadCPU returns the calling OS thread's CPU time; callers lock the
// goroutine to its thread around the work they measure.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0) //nolint:errcheck // the clock id is always valid on Linux
	return time.Duration(ts.Nano())
}

// runRepeat executes one repeat of p, recording spans under id. The
// caller locks the goroutine to its OS thread, so the thread's CPU time
// is the repeat's.
func runRepeat(p prepared, id string, rec *recorder) (out repeatOut) {
	out.ran = true
	t0, c0 := time.Now(), threadCPU()
	engine := string(p.job.Engine)
	var (
		nj   job.Job
		spec *job.Spec
		err  error
	)
	rec.timed(id, "repeat", "job.Normalize", "job", 1, func() { nj, spec, err = job.Normalize(p.job) })
	if err != nil {
		out.err = err
		return out
	}
	rec.timed(id, "repeat", "job.CacheKey", "job", 1, func() { _ = nj.CacheKey() })
	var metrics *obs.EngineMetrics
	if rec != nil {
		metrics = obs.NewEngineMetrics(obs.NewRegistry(), engine)
		nj.Metrics = metrics
	}
	var frozen *snap.Snapshot
	var captureErr error
	if p.checkpointAt > 0 {
		calls := 0
		nj.Checkpoint = func(_ int64, capture func() (*snap.Snapshot, error)) {
			if calls++; calls == p.checkpointAt {
				rec.timed(id, "job.RunNormalized", "snap.capture", "snap", 2, func() { frozen, captureErr = capture() })
			}
		}
	}
	var res job.Result
	rec.timed(id, "repeat", "job.RunNormalized", engine, 1, func() { res, err = job.RunNormalized(context.Background(), nj, spec) })
	if err == nil {
		err = captureErr
	}
	if err == nil && p.checkpointAt > 0 && frozen == nil {
		err = fmt.Errorf("run ended before checkpoint callback %d", p.checkpointAt)
	}
	if err != nil {
		out.err = err
		return out
	}
	rec.timed(id, "repeat", "result.encode", "job", 1, func() {
		res.WallTime = 0
		out.body, err = json.MarshalIndent(res, "", "  ")
	})
	out.digest = sha256.Sum256(out.body)
	if err == nil && frozen != nil {
		out.snapLen, err = resumeCheck(frozen, out.body, id, engine, metrics, rec)
	}
	end := time.Now()
	out.cpu = threadCPU() - c0
	out.total = end.Sub(t0)
	rec.add(span{ID: id, Name: "repeat", Layer: "harness", Start: t0, End: t0.Add(out.total)})
	out.err = err
	if metrics != nil {
		out.counts = countsOf(metrics)
	}
	if err == nil {
		out.hitPath = hitPath(p.job, res)
	}
	return out
}

// resumeCheck encodes, decodes and resumes a captured snapshot and checks
// that the resumed Result equals the uninterrupted one. It returns the
// encoded snapshot's size.
func resumeCheck(frozen *snap.Snapshot, want []byte, id, engine string, metrics *obs.EngineMetrics, rec *recorder) (int, error) {
	var (
		data []byte
		s    *snap.Snapshot
		err  error
	)
	rec.timed(id, "repeat", "snap.Encode", "snap", 1, func() { data, err = frozen.Encode() })
	if err != nil {
		return 0, err
	}
	rec.timed(id, "repeat", "snap.Decode", "snap", 1, func() { s, err = snap.Decode(data) })
	if err != nil {
		return 0, err
	}
	var res job.Result
	rec.timed(id, "repeat", "job.Resume", engine, 1, func() {
		var rj job.Job
		var spec *job.Spec
		if rj, spec, err = job.Default.ResumeJob(s); err == nil {
			rj.Metrics = metrics
			res, err = job.RunNormalized(context.Background(), rj, spec)
		}
	})
	if err != nil {
		return 0, err
	}
	res.WallTime = 0
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(got, want) {
		return 0, fmt.Errorf("resumed Result differs from the uninterrupted one")
	}
	return len(data), nil
}

// runBatch measures one batch workload.
func runBatch(cfg config, traced bool, list func(int64) []benchJob) (*outcome, error) {
	var setups []float64
	var jobs []prepared
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		p, err := prepare(cfg.seed, list)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		jobs = p
	}
	var rec *recorder
	if traced {
		rec = &recorder{}
	}
	n := len(jobs)
	items := make([]int64, maxRounds*n)
	for i := range items {
		items[i] = int64(i)
	}
	var mem0, mem1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem0)
	steal0 := stealTicks()
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	workers := runtime.NumCPU()
	outs := runner.Map(workers, items, func(i int64) repeatOut {
		k, round := int(i)%n, int(i)/n
		if round >= minRounds && time.Now().After(deadline) {
			return repeatOut{}
		}
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		out := runRepeat(jobs[k], fmt.Sprintf("j%d.r%d", k, round), rec)
		if round > 0 {
			out.body = nil
		}
		return out
	})
	wall := time.Since(start)
	steal := stealTicks() - steal0
	runtime.ReadMemStats(&mem1)

	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	times := make([][]float64, n)
	cpus := make([][]float64, n)
	hits := make([][]float64, n)
	first := make([]*repeatOut, n)
	total := map[string]engineCounts{}
	for i := range outs {
		r := &outs[i]
		if !r.ran {
			continue
		}
		k := i % n
		o.attempted++
		bad := r.err
		switch {
		case bad != nil:
		case first[k] == nil && r.body == nil:
			bad = fmt.Errorf("the job's first repeat failed, so there is no Result to compare with")
		case first[k] == nil:
			first[k] = r
			bad = guaranteeOf(jobs[k], r.body)
		case r.digest != first[k].digest:
			bad = fmt.Errorf("Result differs from the job's first repeat")
		}
		if bad != nil {
			o.failed++
			o.problems = append(o.problems, fmt.Sprintf("job %d (%s/%s) round %d: %v",
				k, jobs[k].job.Protocol, jobs[k].job.Engine, i/n, bad))
			continue
		}
		times[k] = append(times[k], r.total.Seconds())
		cpus[k] = append(cpus[k], ms(r.cpu))
		hits[k] = append(hits[k], r.hitPath.Seconds())
		t := total[string(jobs[k].job.Engine)]
		total[string(jobs[k].job.Engine)] = t.plus(r.counts)
	}
	var best, bestCPU, bestHit []float64
	for k := range jobs {
		if len(times[k]) == 0 {
			return nil, fmt.Errorf("job %d (%s) has no successful repeat", k, jobs[k].job.Protocol)
		}
		best = append(best, minOf(times[k]))
		bestCPU = append(bestCPU, minOf(cpus[k]))
		bestHit = append(bestHit, minOf(hits[k]))
	}
	rss, err := peakRSS(0)
	if err != nil {
		return nil, err
	}
	runs := float64(o.attempted)
	o.e2e["setup_s"] = quantile(setups, 0.5)
	o.e2e["best_jobs_per_s"] = float64(n) / sum(best)
	// Wall throughput swings by a fifth between runs on a shared host, so
	// the pool's throughput is read from the same best repeats: each was
	// timed while the other workers ran, so the pool completes workers jobs
	// in the time of one.
	o.e2e["jobs_per_s"] = float64(workers) * o.e2e["best_jobs_per_s"]
	o.e2e["latency_p50_ms"] = 1000 * quantile(best, 0.5)
	o.e2e["latency_p90_ms"] = 1000 * quantile(best, 0.9)
	o.e2e["hit_latency_p50_ms"] = 1000 * quantile(bestHit, 0.5)
	o.e2e["cpu_ms_per_job"] = mean(bestCPU)
	o.e2e["peak_rss_mb"] = rss
	o.host = hostIndicator{slowdown: slowdown(times), stealTicks: steal}
	o.notes = append(o.notes,
		fmt.Sprintf("%d distinct jobs, %d repeats in %.2f s (%d to %d per job), busy best sum %.3f s",
			n, o.attempted, wall.Seconds(), minLen(times), maxLen(times), sum(best)),
		fmt.Sprintf("jobs_per_s = %d workers x best_jobs_per_s (wall throughput of the whole run %.3f/s)",
			workers, runs/wall.Seconds()),
		fmt.Sprintf("latency = each job's best repeat, p50/p90 over %d jobs (p99 %.3f, max %.3f ms); "+
			"hit latency = best Normalize+CacheKey+encode; cpu = each job's least thread CPU, mean over jobs",
			n, 1000*quantile(best, 0.99), 1000*quantile(best, 1)),
		"best repeat time by job kind: "+byKind(jobs, best))
	if traced {
		o.spans = rec.all()
		batchLayers(o, jobs, first, total, &mem0, &mem1, runs)
	}
	return o, nil
}

// byKind sums the best repeat times per protocol and engine, with each
// kind's share of the total, so a reader can see that no kind dominates.
func byKind(jobs []prepared, best []float64) string {
	var kinds []string
	t, count := map[string]float64{}, map[string]int{}
	for k, p := range jobs {
		kind := string(p.job.Protocol) + "/" + string(p.job.Engine)
		if p.job.Params.Fault != nil {
			kind += "+fault"
		}
		if _, ok := t[kind]; !ok {
			kinds = append(kinds, kind)
		}
		t[kind] += best[k]
		count[kind]++
	}
	var parts []string
	for _, kind := range kinds {
		parts = append(parts, fmt.Sprintf("%s x%d %.3f s (%.0f%%)", kind, count[kind], t[kind], 100*t[kind]/sum(best)))
	}
	return strings.Join(parts, ", ")
}

func (c engineCounts) plus(d engineCounts) engineCounts {
	return engineCounts{c.steps + d.steps, c.effective + d.effective, c.rebuilds + d.rebuilds,
		c.flushes + d.flushes, c.faults + d.faults, c.discovered + d.discovered}
}

// guaranteeOf checks a job's first Result against its guarantee.
func guaranteeOf(p prepared, body []byte) error {
	var r struct {
		Halted  bool           `json:"halted"`
		Payload map[string]any `json:"payload"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	return checkGuarantee(p.guarantee, r.Halted, r.Payload)
}

// batchLayers derives the per-layer metrics of a traced batch: time
// ratios over every repeat, per-job counts over distinct jobs (each
// job's first repeat, so the counts repeat exactly across runs of one
// seed).
func batchLayers(o *outcome, jobs []prepared, first []*repeatOut, total map[string]engineCounts,
	mem0, mem1 *runtime.MemStats, runs float64) {
	self, _ := selfTimes(o.spans)
	perJob := map[string][]engineCounts{}
	var snapLens []float64
	for k, p := range jobs {
		e := string(p.job.Engine)
		perJob[e] = append(perJob[e], first[k].counts)
		if p.checkpointAt > 0 {
			snapLens = append(snapLens, float64(first[k].snapLen))
		}
	}
	avg := func(e string, f func(engineCounts) int64) float64 {
		var xs []float64
		for _, c := range perJob[e] {
			xs = append(xs, float64(f(c)))
		}
		return mean(xs)
	}
	per := func(d time.Duration, count int64) float64 {
		if count == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(count)
	}
	l := o.layers
	l["urn.ns_per_effective"] = per(self["urn"], total["urn"].effective)
	l["urn.effective_per_job"] = avg("urn", func(c engineCounts) int64 { return c.effective })
	l["urn.steps_per_job"] = avg("urn", func(c engineCounts) int64 { return c.steps })
	l["urn.block_flushes_per_job"] = avg("urn", func(c engineCounts) int64 { return c.flushes })
	l["urn.alias_rebuilds_per_job"] = avg("urn", func(c engineCounts) int64 { return c.rebuilds })
	l["urn.fault_events_per_job"] = avg("urn", func(c engineCounts) int64 { return c.faults })
	l["pop.ns_per_step"] = per(self["pop"], total["pop"].steps)
	l["pop.steps_per_job"] = avg("pop", func(c engineCounts) int64 { return c.steps })
	l["check.ns_per_config"] = per(self["check"], total["check"].discovered)
	l["check.configs_per_job"] = avg("check", func(c engineCounts) int64 { return c.discovered })
	l["sim.ns_per_step"] = per(self["sim"], total["sim"].steps)
	l["sim.steps_per_job"] = avg("sim", func(c engineCounts) int64 { return c.steps })
	if s := total["sim"].steps; s > 0 {
		l["sim.effective_ratio"] = float64(total["sim"].effective) / float64(s)
	}
	us := func(name string) float64 { return float64(spanMean(o.spans, name)) / 1e3 }
	l["snap.capture_us"] = us("snap.capture")
	l["snap.encode_us"] = us("snap.Encode")
	l["snap.decode_us"] = us("snap.Decode")
	l["snap.bytes"] = mean(snapLens)
	l["snap.resume_ms"] = ms(spanMean(o.spans, "job.Resume"))
	l["job.normalize_us"] = us("job.Normalize")
	l["job.cachekey_us"] = us("job.CacheKey")
	l["job.result_encode_us"] = us("result.encode")
	l["runtime.allocs_per_job"] = float64(mem1.Mallocs-mem0.Mallocs) / runs
	l["runtime.alloc_bytes_per_job"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / runs
	l["runtime.gc_cycles_per_job"] = float64(mem1.NumGC-mem0.NumGC) / runs
}

func minLen(xs [][]float64) int {
	m := len(xs[0])
	for _, x := range xs {
		m = min(m, len(x))
	}
	return m
}

func maxLen(xs [][]float64) int {
	m := 0
	for _, x := range xs {
		m = max(m, len(x))
	}
	return m
}
